//! Exact rational arithmetic backed by `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0`, always stored in
/// lowest terms.
///
/// The coefficients arising from flow equations are tiny (±1, ±2, …); the
/// `i128` backing store leaves enormous headroom for the intermediate values
/// produced by Gaussian elimination.  All arithmetic uses checked operations
/// and panics on overflow rather than silently wrapping.
///
/// Nearly every coefficient of an elimination is an integer, so `+`, `*`
/// and [`Rational::recip`] take an integer fast path when the operand
/// denominators are 1: the same lowest-terms value and the same overflow
/// panics as the general formula, without its gcd.
///
/// # Examples
///
/// ```
/// use advocat_num::Rational;
///
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// assert_eq!((a - a).is_zero(), true);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a rational `num / den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        let mut r = Rational { num, den };
        r.normalize();
        r
    }

    /// Creates a rational from an integer value.
    pub fn from_integer(value: i128) -> Self {
        Rational { num: value, den: 1 }
    }

    /// Returns the numerator (after normalisation, carries the sign).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// Returns the (strictly positive) denominator.
    pub fn denominator(&self) -> i128 {
        self.den
    }

    /// Returns `true` when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` when the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` when the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns the absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "cannot invert zero");
        if self.den == 1 {
            // `1 / n` is already in lowest terms: only the sign moves.
            let den = self.num.checked_abs().expect("rational overflow");
            return Rational {
                num: self.num.signum(),
                den,
            };
        }
        Rational::new(self.den, self.num)
    }

    /// Converts to `i128` when the value is an integer.
    pub fn to_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Converts to a (possibly lossy) `f64`, for reporting only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn normalize(&mut self) {
        if self.den < 0 {
            self.num = self.num.checked_neg().expect("rational overflow");
            self.den = self.den.checked_neg().expect("rational overflow");
        }
        if self.num == 0 {
            self.den = 1;
            return;
        }
        let g = gcd(self.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        self.num /= g;
        self.den /= g;
    }
}

/// The greatest common divisor, with `gcd(0, 0) = 1` so that dividing
/// by it is always defined.
pub(crate) fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    message: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.message)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |m: &str| ParseRationalError {
            message: m.to_owned(),
        };
        match s.split_once('/') {
            None => {
                let n: i128 = s.trim().parse().map_err(|_| err(s))?;
                Ok(Rational::from_integer(n))
            }
            Some((a, b)) => {
                let n: i128 = a.trim().parse().map_err(|_| err(s))?;
                let d: i128 = b.trim().parse().map_err(|_| err(s))?;
                if d == 0 {
                    return Err(err("zero denominator"));
                }
                Ok(Rational::new(n, d))
            }
        }
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;

    fn add(self, rhs: Rational) -> Rational {
        if self.den == 1 && rhs.den == 1 {
            let num = self
                .num
                .checked_add(rhs.num)
                .expect("rational addition overflow");
            return Rational { num, den: 1 };
        }
        let num = self
            .num
            .checked_mul(rhs.den)
            .and_then(|a| rhs.num.checked_mul(self.den).and_then(|b| a.checked_add(b)))
            .expect("rational addition overflow");
        let den = self
            .den
            .checked_mul(rhs.den)
            .expect("rational addition overflow");
        Rational::new(num, den)
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl Sub for Rational {
    type Output = Rational;

    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;

    fn neg(self) -> Rational {
        Rational {
            num: self.num.checked_neg().expect("rational negation overflow"),
            den: self.den,
        }
    }
}

impl Mul for Rational {
    type Output = Rational;

    fn mul(self, rhs: Rational) -> Rational {
        let num = self
            .num
            .checked_mul(rhs.num)
            .expect("rational multiplication overflow");
        if self.den == 1 && rhs.den == 1 {
            return Rational { num, den: 1 };
        }
        let den = self
            .den
            .checked_mul(rhs.den)
            .expect("rational multiplication overflow");
        Rational::new(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;

    #[allow(clippy::suspicious_arithmetic_impl)] // division via the reciprocal
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_in_lowest_terms() {
        let r = Rational::new(4, 8);
        assert_eq!(r.numerator(), 1);
        assert_eq!(r.denominator(), 2);
    }

    #[test]
    fn normalizes_sign_to_numerator() {
        let r = Rational::new(3, -9);
        assert_eq!(r, Rational::new(-1, 3));
        assert!(r.is_negative());
    }

    #[test]
    fn zero_has_canonical_form() {
        let r = Rational::new(0, -7);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denominator(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_matches_hand_computation() {
        let a = Rational::new(2, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 2));
        assert_eq!(a * b, Rational::new(1, 9));
        assert_eq!(a / b, Rational::from_integer(4));
    }

    #[test]
    fn ordering_is_consistent() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn recip_and_integer_roundtrip() {
        let a = Rational::new(3, 7);
        assert_eq!(a.recip(), Rational::new(7, 3));
        assert_eq!(Rational::from_integer(5).to_integer(), Some(5));
        assert_eq!(a.to_integer(), None);
    }

    #[test]
    fn parses_integer_and_fraction_literals() {
        assert_eq!(
            "42".parse::<Rational>().unwrap(),
            Rational::from_integer(42)
        );
        assert_eq!("-3/6".parse::<Rational>().unwrap(), Rational::new(-1, 2));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
    }

    /// `a + b` by the general formula, without the integer fast path.
    fn textbook_add(a: Rational, b: Rational) -> Rational {
        let num = a
            .num
            .checked_mul(b.den)
            .and_then(|x| b.num.checked_mul(a.den).and_then(|y| x.checked_add(y)))
            .expect("rational addition overflow");
        let den = a
            .den
            .checked_mul(b.den)
            .expect("rational addition overflow");
        Rational::new(num, den)
    }

    /// `a · b` by the general formula.
    fn textbook_mul(a: Rational, b: Rational) -> Rational {
        let num = a
            .num
            .checked_mul(b.num)
            .expect("rational multiplication overflow");
        let den = a
            .den
            .checked_mul(b.den)
            .expect("rational multiplication overflow");
        Rational::new(num, den)
    }

    /// `1 / a` by the general formula.
    fn textbook_recip(a: Rational) -> Rational {
        assert!(!a.is_zero(), "cannot invert zero");
        Rational::new(a.den, a.num)
    }

    /// The value `op` returns, or the message it panics with.
    fn outcome(op: impl FnOnce() -> Rational) -> Result<Rational, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|m| (*m).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        })
    }

    #[test]
    fn fast_paths_match_the_general_formula() {
        // A deterministic xorshift64 stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let numerators = [
            0,
            1,
            -1,
            2,
            -3,
            7,
            -12,
            i128::MAX,
            i128::MAX - 1,
            i128::MAX / 2 + 1,
            i128::MIN,
            i128::MIN + 1,
            -(i128::MAX / 3),
            1 << 64,
            -(1 << 63),
        ];
        let denominators = [
            2,
            3,
            4,
            6,
            9,
            1 << 40,
            i128::MAX,
            i128::MAX - 1,
            i128::MAX / 2,
        ];
        let mut pick = |integer: bool| {
            let num = match next() % 3 {
                0 => numerators[(next() % numerators.len() as u64) as usize],
                _ => (next() % 41) as i128 - 20,
            };
            let den = if integer {
                1
            } else {
                denominators[(next() % denominators.len() as u64) as usize]
            };
            Rational::new(num, den)
        };
        // Overflow panics per operation, with both denominators 1, exactly
        // one of them, or neither.
        let mut overflows = [[0; 3]; 3];
        for case in 0..6_000 {
            let shape = case % 3;
            let a = pick(shape < 2);
            let b = pick(shape == 0);
            let checks = [
                ("+", outcome(|| a + b), outcome(|| textbook_add(a, b))),
                ("*", outcome(|| a * b), outcome(|| textbook_mul(a, b))),
                (
                    "recip",
                    outcome(|| a.recip()),
                    outcome(|| textbook_recip(a)),
                ),
            ];
            for (op, (name, fast, general)) in checks.into_iter().enumerate() {
                assert_eq!(fast, general, "{a:?} {name} {b:?}");
                overflows[op][shape] += usize::from(fast.is_err());
            }
        }
        // Values near the `i128` limits keep every panic exercised, the
        // integer fast paths' included (`recip` reads only `a`, an integer
        // in the first two shapes).
        for (op, counts) in ["+", "*", "recip"].iter().zip(overflows) {
            assert!(counts.iter().all(|&n| n >= 20), "{op}: {counts:?}");
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Rational::new(-1, 2).to_string(), "-1/2");
        assert_eq!(Rational::from_integer(7).to_string(), "7");
    }
}
