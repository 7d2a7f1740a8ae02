//! Attribute values carried by notifications.

use crate::digest::Fnv1a;
use crate::error::CoreError;
use crate::id::LocationId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// An attribute value carried by a [`Notification`](crate::Notification).
///
/// Values form the leaves of the content model. Comparisons are only defined
/// within a *comparison class*: booleans, numbers (`Int` and `Float` compare
/// against each other), strings, and locations. Cross-class comparisons
/// yield `None` from [`PartialOrd`], which content-based filters interpret
/// as "does not match" rather than an error — a publisher using a different
/// schema simply never matches.
///
/// ```
/// use rebeca_core::Value;
/// assert_eq!(Value::from(3i64), Value::from(3.0f64)); // same numeric class
/// assert_ne!(Value::from("3"), Value::from(3i64));    // different classes
/// assert!(Value::from(2i64) < Value::from(2.5f64));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed 64-bit integer.
    Int(i64),
    /// Floating point number. NaN never matches anything (all comparisons
    /// with NaN are `None`); the checked constructor [`Value::try_float`]
    /// rejects non-finite values outright.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A location identifier — locations are first-class in mobile REBECA.
    Loc(LocationId),
}

impl Value {
    /// Creates a float value, rejecting NaN and infinities.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteFloat`] if `f` is not finite.
    pub fn try_float(f: f64) -> Result<Value, CoreError> {
        if f.is_finite() {
            Ok(Value::Float(f))
        } else {
            Err(CoreError::NonFiniteFloat { attribute: String::new() })
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the numeric payload widened to `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the location payload, if this is a `Loc`.
    pub fn as_location(&self) -> Option<LocationId> {
        match self {
            Value::Loc(l) => Some(*l),
            _ => None,
        }
    }

    /// Feeds the canonical encoding of this value into a digest hasher.
    pub(crate) fn hash_into(&self, h: &mut Fnv1a) {
        match self {
            Value::Bool(b) => {
                h.write_u8(0);
                h.write_u8(u8::from(*b));
            }
            Value::Int(i) => {
                h.write_u8(1);
                h.write_u64(*i as u64);
            }
            Value::Float(f) => {
                h.write_u8(2);
                h.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                h.write_u8(3);
                h.write_u64(s.len() as u64);
                h.write(s.as_bytes());
            }
            Value::Loc(l) => {
                h.write_u8(4);
                h.write_u32(l.raw());
            }
        }
    }

    /// Feeds a *canonical* encoding into a digest hasher: equal values
    /// (per `PartialEq`, which compares `Int` and `Float` numerically)
    /// always hash identically — `Int(3)` and `Float(3.0)` fold together,
    /// and `-0.0` folds onto `+0.0`. Unequal values may collide (large
    /// integers folded through `f64` lose precision), so this is a
    /// *candidate* key, not an identity: callers must re-check with a real
    /// comparison.
    pub(crate) fn canonical_hash_into(&self, h: &mut Fnv1a) {
        fn canon_bits(f: f64) -> u64 {
            if f == 0.0 {
                0.0f64.to_bits()
            } else {
                f.to_bits()
            }
        }
        match self {
            Value::Bool(b) => {
                h.write_u8(0);
                h.write_u8(u8::from(*b));
            }
            // One shared tag for the whole numeric class.
            Value::Int(i) => {
                h.write_u8(1);
                h.write_u64(canon_bits(*i as f64));
            }
            Value::Float(f) => {
                h.write_u8(1);
                h.write_u64(canon_bits(*f));
            }
            Value::Str(s) => {
                h.write_u8(3);
                h.write_u64(s.len() as u64);
                h.write(s.as_bytes());
            }
            Value::Loc(l) => {
                h.write_u8(4);
                h.write_u32(l.raw());
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.partial_cmp(other) == Some(Ordering::Equal)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.partial_cmp(b),
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.partial_cmp(b),
            (Loc(a), Loc(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    /// Converts a float.
    ///
    /// # Panics
    ///
    /// Panics if `f` is NaN or infinite; use [`Value::try_float`] for a
    /// fallible conversion.
    fn from(f: f64) -> Value {
        assert!(f.is_finite(), "attribute values must be finite floats");
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<LocationId> for Value {
    fn from(l: LocationId) -> Value {
        Value::Loc(l)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Loc(l) => write!(f, "{l}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_class_comparisons() {
        assert!(Value::from(1i64) < Value::from(2i64));
        assert!(Value::from("abc") < Value::from("abd"));
        assert!(Value::from(false) < Value::from(true));
        assert!(Value::from(LocationId::new(1)) < Value::from(LocationId::new(2)));
    }

    #[test]
    fn numeric_class_mixes_int_and_float() {
        assert_eq!(Value::from(3i64), Value::from(3.0f64));
        assert!(Value::from(3i64) < Value::from(3.5f64));
        assert!(Value::from(3.5f64) > Value::from(3i64));
    }

    #[test]
    fn cross_class_is_incomparable() {
        assert_eq!(Value::from("1").partial_cmp(&Value::from(1i64)), None);
        assert_ne!(Value::from("1"), Value::from(1i64));
        assert_eq!(Value::from(LocationId::new(1)).partial_cmp(&Value::from(1i64)), None);
        assert_eq!(Value::from(true).partial_cmp(&Value::from(1i64)), None);
    }

    #[test]
    fn nan_matches_nothing() {
        let nan = Value::Float(f64::NAN);
        assert_ne!(nan, Value::Float(f64::NAN));
        assert_eq!(nan.partial_cmp(&Value::from(1.0)), None);
    }

    #[test]
    fn try_float_rejects_non_finite() {
        assert!(Value::try_float(1.5).is_ok());
        assert!(Value::try_float(f64::NAN).is_err());
        assert!(Value::try_float(f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_f64_panics_on_nan() {
        let _ = Value::from(f64::NAN);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(2i64).as_int(), Some(2));
        assert_eq!(Value::from(2i64).as_f64(), Some(2.0));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(LocationId::new(7)).as_location(), Some(LocationId::new(7)));
        assert_eq!(Value::from("x").as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(3i64).to_string(), "3");
        assert_eq!(Value::from("hi").to_string(), "'hi'");
        assert_eq!(Value::from(LocationId::new(2)).to_string(), "L2");
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        use crate::codec::wire_len;
        assert_eq!(wire_len::<Value>(&Value::from(true)), 2);
        assert_eq!(wire_len::<Value>(&Value::from(1i64)), 9);
        assert_eq!(wire_len::<Value>(&Value::from("ab")), 7);
        assert_eq!(wire_len::<Value>(&Value::from(LocationId::new(1))), 5);
    }
}
