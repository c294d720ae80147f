//! The measure domain: whole quarter units, small enough that every
//! partial aggregate is exact in `f64`.
//!
//! A fact measure is a multiple of 1/4 with `|m| < 2^20`, and a fact
//! table holds fewer than 2^31 rows. Every SUM, COUNT, MIN or MAX over
//! such a table is then a whole number of quarter units below 2^53 in
//! magnitude, which `f64` represents exactly, so partial aggregates merge
//! exactly in any order. DESIGN.md ("Measure domain") gives the argument.

/// Fact measures satisfy `|4m| < MEASURE_LIMIT_UNITS`, i.e. `|m| < 2^20`.
pub const MEASURE_LIMIT_UNITS: i64 = 1 << 22;

/// A fact table holds fewer than this many rows.
pub const MAX_FACT_ROWS: u64 = 1 << 31;

/// Every partial aggregate over a fact table lies below this many quarter
/// units in magnitude.
pub const PARTIAL_LIMIT_UNITS: i64 = MEASURE_LIMIT_UNITS * MAX_FACT_ROWS as i64;

const _: () = assert!(PARTIAL_LIMIT_UNITS <= 1 << 53);

/// The quarter units of `m` when `m` is a whole number of quarter units,
/// is not `-0.0`, and lies strictly below `limit` quarter units in
/// magnitude — [`MEASURE_LIMIT_UNITS`] for a fact measure,
/// [`PARTIAL_LIMIT_UNITS`] for a stored aggregate. `None` otherwise,
/// which covers NaN and the infinities.
pub fn quarter_units(m: f64, limit: i64) -> Option<i64> {
    let q = m * 4.0;
    if q.is_nan() || q.abs() >= limit as f64 {
        return None;
    }
    let q = q as i64;
    // Round-trips only for whole quarter units, and not for -0.0.
    ((q as f64 / 4.0).to_bits() == m.to_bits()).then_some(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_domain_boundaries() {
        let top = (1u64 << 20) as f64;
        for (m, want) in [
            (0.0, Some(0)),
            (0.25, Some(1)),
            (-99.75, Some(-399)),
            (top - 0.25, Some(MEASURE_LIMIT_UNITS - 1)),
            (0.25 - top, Some(1 - MEASURE_LIMIT_UNITS)),
            (top, None),
            (-top, None),
            (0.1, None),
            (0.125, None),
            (-0.0, None),
            (f64::NAN, None),
            (f64::INFINITY, None),
            (f64::NEG_INFINITY, None),
            (f64::MIN_POSITIVE, None),
        ] {
            assert_eq!(quarter_units(m, MEASURE_LIMIT_UNITS), want, "{m}");
        }
    }

    #[test]
    fn partial_domain_holds_every_sum_of_facts() {
        let biggest = (MEASURE_LIMIT_UNITS - 1) as f64 / 4.0 * (MAX_FACT_ROWS - 1) as f64;
        assert_eq!(
            quarter_units(biggest, PARTIAL_LIMIT_UNITS),
            Some((MEASURE_LIMIT_UNITS - 1) * (MAX_FACT_ROWS - 1) as i64)
        );
        assert_eq!(
            quarter_units(-biggest, PARTIAL_LIMIT_UNITS).map(i64::signum),
            Some(-1)
        );
        let limit = PARTIAL_LIMIT_UNITS as f64 / 4.0;
        assert_eq!(quarter_units(limit, PARTIAL_LIMIT_UNITS), None);
        assert_eq!(quarter_units(1e300, PARTIAL_LIMIT_UNITS), None);
    }
}
