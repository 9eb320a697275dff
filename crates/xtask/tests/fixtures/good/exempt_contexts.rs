// Fixture: contexts the rules must NOT reach — comments, string literals
// and cfg(test) items. Linted as crates/dds/src/fixture.rs; must be clean.

// xs.sort_by(|a, b| a.partial_cmp(b).unwrap()) in a comment

pub const DOC: &str = "say \" xs.sort_by(|a, b| a.partial_cmp(b).unwrap()) \"";
pub const RAW: &str = r#"x" xs.max_by(|a, b| a.partial_cmp(b).unwrap()) "y"#;

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_do_anything() {
        let mut xs = vec![2.0f64, 1.0];
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}
