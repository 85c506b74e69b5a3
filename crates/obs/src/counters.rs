//! One declaration per counter: the [`counters!`] table
//! macro (DESIGN.md § "Adding a counter").

/// Declares a struct of `u64` counters from one table of `name: "doc"`
/// rows. Every row becomes a plain `pub u64` field (the hot path still
/// writes `stats.cmap_probes += 1`), and the table also emits everything
/// a consumer needs to walk the fields *in declaration order* without
/// naming them:
///
/// * `LEN` / `NAMES` — the row count and the field names;
/// * `to_array()` / `from_array()` — the fields as `[u64; LEN]`;
/// * `merge()` — field-wise accumulation.
///
/// Checkpoint payloads, the cluster control arrays and the replay
/// fingerprints are loops over `to_array()`, so adding, removing or
/// reordering a row is a one-line edit here and nowhere else.
///
/// ```
/// psgl_obs::counters! {
///     /// Two counters.
///     pub struct Pair {
///         hits: "Lookups that hit.",
///         misses: "Lookups that missed.",
///     }
/// }
/// let mut a = Pair::from_array([1, 2]);
/// a.merge(&Pair { hits: 10, misses: 20 });
/// assert_eq!(a.to_array(), [11, 22]);
/// assert_eq!(Pair::NAMES, ["hits", "misses"]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $doc:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $(#[doc = $doc] pub $field: u64,)+
        }

        impl $name {
            /// Number of counters in the table.
            pub const LEN: usize = [$(stringify!($field)),+].len();

            /// Field names, in declaration order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($field)),+];

            /// The counters in declaration order.
            pub fn to_array(&self) -> [u64; Self::LEN] {
                [$(self.$field),+]
            }

            /// Inverse of `to_array`.
            pub fn from_array(values: [u64; Self::LEN]) -> Self {
                let [$($field),+] = values;
                Self { $($field),+ }
            }

            /// Accumulates `other` into `self`, field by field.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)+
            }
        }
    };
}

/// Checks the contract every `counters!` table promises its consumers:
/// `from_array`/`to_array` are inverse and in `NAMES` order, `merge` adds
/// every slot, and the struct holds nothing but the table's fields (a
/// field added outside the table would change its size).
#[macro_export]
macro_rules! assert_counter_table {
    ($name:ty) => {{
        let mut values = [0u64; <$name>::LEN];
        for (i, v) in values.iter_mut().enumerate() {
            *v = i as u64 + 1;
        }
        let mut t = <$name>::from_array(values);
        assert_eq!(t.to_array(), values);
        assert_eq!(<$name>::NAMES.len(), <$name>::LEN);
        let other = t;
        t.merge(&other);
        assert_eq!(t.to_array(), values.map(|v| 2 * v), "merge must add every slot");
        assert_eq!(std::mem::size_of::<$name>(), 8 * <$name>::LEN, "field outside the table");
    }};
}
