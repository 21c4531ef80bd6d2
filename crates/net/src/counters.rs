//! Counter families: every counter declared once.
//!
//! A *family* is a set of `u64` counters read together: a public
//! snapshot struct and, where hot paths bump it, a twin of atomics.
//! [`counter_family!`](crate::counter_family) takes the field list —
//! name and doc comment, once — and generates every consumer that used
//! to be a hand-kept copy of it: the snapshot struct, its name table,
//! `merge`, `render` and the twin's `snapshot()`. `FaultStats` and
//! `IoStats` in `transport.rs` are the nearest examples.
//!
//! * `name: Source` is a counter the family *shows* but `Source` owns: a
//!   field of the snapshot, absent from the twin, filled by
//!   `absorb(source.fields())`. That `Source` has the field is checked
//!   at compile time.
//! * `extra { … }` after the struct, and `{ … }` after the twin's name,
//!   carry fields that are not `u64` counters (a histogram, a nested
//!   family). Filling, merging and rendering them stays hand-written.

/// Declares one counter family; see the [module docs](crate::counters).
#[macro_export]
macro_rules! counter_family {
    (
        $(#[$smeta:meta])*
        pub struct $Stats:ident { $( $(#[$fmeta:meta])* $field:ident $(: $src:ty)? ),* $(,)? }
        $( extra { $($extra:tt)* } )?
        $( $(#[$ameta:meta])* atomics $avis:vis struct $Atomics:ident $( { $($aextra:tt)* } )? $(;)? )?
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Stats {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($($extra)*)?
        }

        impl $Stats {
            /// Counter names in declaration order — the order of
            /// [`Self::fields`] and of the lines [`Self::render`] writes.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Every counter as `(name, value)`.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::FIELDS.iter().copied().zip([$(self.$field),*])
            }

            /// The counter called `name`, if this family declares one.
            pub fn field_mut(&mut self, name: &str) -> Option<&mut u64> {
                match name {
                    $( stringify!($field) => Some(&mut self.$field), )*
                    _ => None,
                }
            }

            /// Adds `other` to `self`, counter by counter.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }

            /// Adds every `(name, value)` whose name this family also
            /// declares and skips the rest: how a view folds in the
            /// counters another family owns.
            pub fn absorb(&mut self, fields: impl Iterator<Item = (&'static str, u64)>) {
                for (name, value) in fields {
                    if let Some(slot) = self.field_mut(name) {
                        *slot += value;
                    }
                }
            }

            /// Appends one `<prefix>_<name> <value>` line per counter —
            /// the plaintext stats page format (`GET /metrics`).
            pub fn render(&self, out: &mut String, prefix: &str) {
                use ::std::fmt::Write as _;
                for (name, value) in self.fields() {
                    let _ = writeln!(out, "{prefix}_{name} {value}");
                }
            }

            /// Test support — the table is the contract: a value of its
            /// own behind every declared name must come through `merge`
            /// and land on that name's own `render` line.
            #[cfg(test)]
            pub(crate) fn assert_family_contract(prefix: &str) {
                let (mut stats, mut want) = (Self::default(), String::new());
                for (i, name) in Self::FIELDS.iter().enumerate() {
                    *stats.field_mut(name).expect("a declared name resolves") = i as u64 + 1;
                    want.push_str(&format!("{prefix}_{name} {}\n", 2 * (i + 1)));
                }
                let (mut twice, mut page) = (stats, String::new());
                twice.merge(&stats);
                twice.render(&mut page, prefix);
                assert_eq!(page, want);
            }
        }

        $($( const _: fn(&$src) -> u64 = |source| source.$field; )?)*
        $crate::counter_family! {
            @twin [$( $(#[$ameta])* $avis $Atomics [$($($aextra)*)?] )?] $Stats [] $($field $(: $src)?,)*
        }
    };
    // The twin: walk the field list, keeping the counters it backs.
    (@twin $twin:tt $Stats:ident [$($kept:ident)*] $field:ident : $src:ty, $($rest:tt)*) => {
        $crate::counter_family! { @twin $twin $Stats [$($kept)*] $($rest)* }
    };
    (@twin $twin:tt $Stats:ident [$($kept:ident)*] $field:ident, $($rest:tt)*) => {
        $crate::counter_family! { @twin $twin $Stats [$($kept)* $field] $($rest)* }
    };
    (@twin [] $Stats:ident [$($kept:ident)*]) => {};
    (@twin [$(#[$ameta:meta])* $avis:vis $Atomics:ident [$($aextra:tt)*]] $Stats:ident [$($kept:ident)*]) => {
        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $Atomics {
            $( pub(crate) $kept: ::std::sync::atomic::AtomicU64, )*
            $($aextra)*
        }

        impl $Atomics {
            /// The counters as they read now (`Relaxed` loads); what the
            /// twin does not back is left at its default.
            #[allow(clippy::needless_update)]
            $avis fn snapshot(&self) -> $Stats {
                $Stats {
                    $( $kept: self.$kept.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..Default::default()
                }
            }

            /// Test support: every backed counter, set to a value of
            /// its own, comes back under its own name.
            #[cfg(test)]
            pub(crate) fn assert_twin_contract() {
                let (twin, mut want, mut value) = (Self::default(), <$Stats>::default(), 0);
                $(
                    value += 1;
                    twin.$kept.store(value, ::std::sync::atomic::Ordering::Relaxed);
                    *want.field_mut(stringify!($kept)).expect("a declared name resolves") = value;
                )*
                assert_eq!(twin.snapshot(), want);
            }
        }
    };
}
