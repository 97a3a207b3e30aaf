//! The one name lookup over a component kind's table (its `const ALL`
//! and `name()`), and [`from_name!`](crate::from_name) to parse a kind
//! by it, so every surface that reads a name accepts the same spellings
//! and refuses the rest with the same message.

/// The item of `all` called `text`, or a message naming the `kind` and
/// listing the valid names in `all`'s order.
pub fn lookup<T: Copy>(
    kind: &str,
    all: &[T],
    name: fn(T) -> &'static str,
    text: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&item| name(item) == text)
        .ok_or_else(|| format!("unknown {kind} {text:?}; valid: {}", join(all, name)))
}

/// Implements `FromStr` for a kind by [`lookup`] over its `ALL` and `name()`.
#[macro_export]
macro_rules! from_name {
    ($kind:literal, $t:ty) => {
        impl std::str::FromStr for $t {
            type Err = String;

            fn from_str(name: &str) -> Result<Self, String> {
                $crate::names::lookup($kind, &Self::ALL, Self::name, name)
            }
        }
    };
}

/// The names of `all`, space-separated, in order.
pub fn join<T: Copy>(all: &[T], name: fn(T) -> &'static str) -> String {
    let names: Vec<_> = all.iter().map(|&item| name(item)).collect();
    names.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: u8) -> &'static str {
        ["zero", "one"][usize::from(n)]
    }

    #[test]
    fn finds_by_name_and_lists_the_table_on_a_miss() {
        assert_eq!(lookup("digit", &[0, 1], name, "one"), Ok(1));
        assert_eq!(
            lookup("digit", &[0, 1], name, "two"),
            Err("unknown digit \"two\"; valid: zero one".to_owned())
        );
        assert_eq!(join(&[1, 0], name), "one zero");
    }
}
