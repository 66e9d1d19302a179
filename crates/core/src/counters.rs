//! The counter schema: every end-of-run stats struct is declared once,
//! with [`counters!`](crate::counters!), and that declaration generates
//! the one walk every reader of its counters uses — the telemetry
//! snapshot, the disk codec, `asd-serve`'s result object and the
//! Figure 13 read-back. A new counter is one field with its name, unit
//! and help text; no reader lists fields by hand.

/// Unit of a metric, carried into exposition help text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless.
    None,
    /// Simulated cycles.
    Cycles,
    /// DRAM/controller commands.
    Commands,
    /// Cache lines.
    Lines,
    /// Trace accesses.
    Accesses,
    /// Events.
    Events,
    /// Joules.
    Joules,
    /// Watts.
    Watts,
    /// Seconds (derived, simulated).
    Seconds,
}

impl Unit {
    /// Short label for help text; empty for dimensionless.
    pub fn label(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Cycles => "cycles",
            Unit::Commands => "commands",
            Unit::Lines => "lines",
            Unit::Accesses => "accesses",
            Unit::Events => "events",
            Unit::Joules => "joules",
            Unit::Watts => "watts",
            Unit::Seconds => "seconds",
        }
    }
}

/// How a counter appears in the telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Export {
    /// Unit.
    pub unit: Unit,
    /// One-line description (the exposition help text).
    pub help: &'static str,
}

/// A counter's storage, lent by the walk: a `u64` is a snapshot counter,
/// an `f64` a snapshot gauge.
#[derive(Debug)]
pub enum Slot<'a> {
    /// An integer count.
    U64(&'a mut u64),
    /// A real-valued quantity.
    F64(&'a mut f64),
}

impl<'a> From<&'a mut u64> for Slot<'a> {
    fn from(v: &'a mut u64) -> Self {
        Slot::U64(v)
    }
}

impl<'a> From<&'a mut f64> for Slot<'a> {
    fn from(v: &'a mut f64) -> Self {
        Slot::F64(v)
    }
}

/// The callback of a walk. It receives the counter's dotted name, its
/// [`Export`] (`None` for a counter the snapshot does not carry) and its
/// storage.
pub type Visitor<'v> = dyn FnMut(&str, Option<Export>, Slot<'_>) + 'v;

/// A stats struct whose counters can be walked by name — one declared
/// with [`counters!`](crate::counters!), or a hand-written composite of
/// such structs.
pub trait Counters {
    /// Call `f` once per counter, in declaration order. Each counter is
    /// named `path` followed by its dotted name within `self`; `path` is
    /// as it was on return.
    fn visit_counters(&mut self, path: &mut String, f: &mut Visitor<'_>);
}

/// Yield one counter named `path` + `name` to `f`.
pub fn visit_leaf(
    path: &mut String,
    name: &str,
    export: Option<Export>,
    slot: Slot<'_>,
    f: &mut Visitor<'_>,
) {
    let len = path.len();
    path.push_str(name);
    f(path, export, slot);
    path.truncate(len);
}

/// Walk `stats` under `path` + `name` + `.`.
pub fn visit_nested(path: &mut String, name: &str, stats: &mut dyn Counters, f: &mut Visitor<'_>) {
    let len = path.len();
    path.push_str(name);
    path.push('.');
    stats.visit_counters(path, f);
    path.truncate(len);
}

/// Declare a stats struct and its [`Counters`] walk in one place.
///
/// The struct is emitted exactly as written — attributes, doc comments,
/// field order — with each field's `=> spec` stripped. The spec says how
/// the walk yields the field:
///
/// * `(Unit, "help")` — a counter exported under the field's name;
/// * `("name", Unit, "help")` — the same under an explicit dotted name;
/// * `(unexported)` — walked (the disk codec carries it) but left out of
///   the telemetry snapshot;
/// * `(nested)` — a stats struct of its own, walked under `field.`.
///
/// `Unit` is a [`Unit`] variant. Fields are `u64` (a snapshot counter) or
/// `f64` (a gauge).
///
/// ```
/// use asd_core::counters::{Counters, Slot};
///
/// asd_core::counters! {
///     /// Hits and misses of one table.
///     #[derive(Debug, Default)]
///     pub struct TableStats {
///         /// Lookups that hit.
///         pub hits: u64 => (Accesses, "lookups that hit"),
///         /// Scratch count the snapshot leaves out.
///         pub probes: u64 => (unexported),
///     }
/// }
///
/// let mut s = TableStats { hits: 3, probes: 9 };
/// let mut seen = Vec::new();
/// s.visit_counters(&mut String::from("table."), &mut |name, export, slot| {
///     if let Slot::U64(v) = slot {
///         seen.push((name.to_string(), export.is_some(), *v));
///     }
/// });
/// assert_eq!(seen, [("table.hits".into(), true, 3), ("table.probes".into(), false, 9)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty => $spec:tt
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::counters::Counters for $name {
            fn visit_counters(
                &mut self,
                path: &mut ::std::string::String,
                f: &mut $crate::counters::Visitor<'_>,
            ) {
                $($crate::counters!(@field self, path, f, $field $spec);)*
            }
        }
    };
    (@field $s:ident, $path:ident, $f:ident, $field:ident (nested)) => {
        $crate::counters::visit_nested($path, stringify!($field), &mut $s.$field, $f)
    };
    (@field $s:ident, $path:ident, $f:ident, $field:ident (unexported)) => {
        $crate::counters::visit_leaf(
            $path,
            stringify!($field),
            ::core::option::Option::None,
            $crate::counters::Slot::from(&mut $s.$field),
            $f,
        )
    };
    (@field $s:ident, $path:ident, $f:ident, $field:ident ($unit:ident, $help:literal)) => {
        $crate::counters!(@field $s, $path, $f, $field (stringify!($field), $unit, $help))
    };
    (@field $s:ident, $path:ident, $f:ident, $field:ident ($name:expr, $unit:ident, $help:literal)) => {
        $crate::counters::visit_leaf(
            $path,
            $name,
            ::core::option::Option::Some($crate::counters::Export {
                unit: $crate::counters::Unit::$unit,
                help: $help,
            }),
            $crate::counters::Slot::from(&mut $s.$field),
            $f,
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counters! {
        /// Inner block.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct Inner {
            /// A gauge.
            pub energy: f64 => ("energy_j", Joules, "energy"),
        }
    }

    crate::counters! {
        /// Outer block.
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct Outer {
            /// A counter.
            pub reads: u64 => (Commands, "reads"),
            /// Carried but not exported.
            pub scratch: u64 => (unexported),
            /// A nested block.
            pub inner: Inner => (nested),
        }
    }

    fn walk(s: &mut Outer, prefix: &str) -> Vec<(String, Option<Export>)> {
        let mut seen = Vec::new();
        let mut path = prefix.to_string();
        s.visit_counters(&mut path, &mut |name, export, _| seen.push((name.to_string(), export)));
        assert_eq!(path, prefix, "the walk restores its path");
        seen
    }

    #[test]
    fn walk_yields_names_exports_in_field_order() {
        let seen = walk(&mut Outer::default(), "x.");
        let names: Vec<&str> = seen.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["x.reads", "x.scratch", "x.inner.energy_j"]);
        assert_eq!(seen[0].1, Some(Export { unit: Unit::Commands, help: "reads" }));
        assert_eq!(seen[1].1, None);
        assert_eq!(seen[2].1, Some(Export { unit: Unit::Joules, help: "energy" }));
    }

    #[test]
    fn slots_write_through_to_the_fields() {
        let mut s = Outer::default();
        s.visit_counters(&mut String::new(), &mut |_, _, slot| match slot {
            Slot::U64(v) => *v += 7,
            Slot::F64(v) => *v = 1.5,
        });
        assert_eq!(s, Outer { reads: 7, scratch: 7, inner: Inner { energy: 1.5 } });
    }
}
