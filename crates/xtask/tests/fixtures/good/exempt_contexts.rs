// Fixture: contexts the rules must NOT reach — comments, string literals
// and cfg(test) items. Linted as crates/dds/src/fixture.rs; must be clean.

// Mutex<f64> in a comment: cell.fetch_add(x.to_bits(), Relaxed)

pub const DOC: &str = "keep a Mutex<f64> and fetch_add into it";
pub const RAW: &str = r#"f64::from_bits(cell.fetch_update(..))"#;

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn tests_may_do_anything() {
        let acc: Mutex<f64> = Mutex::new(0.0);
        *acc.lock().unwrap() += 1.0;
    }
}
