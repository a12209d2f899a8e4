//! Tokenizer traps: every P001 trigger below but the last line's is
//! inert — it sits inside a string, raw string, byte string, comment or
//! char literal, or is a lifetime. A naive grep flags this file; the
//! tokenizer must not, and must still find the real site after them.

pub fn traps<'a>(input: &'a str, v: &[u32]) -> String {
    // line comment: x.unwrap(), v[0], panic!("no")
    /* block comment: v.expect("x") /* nested: v[1 + 2] */ todo!() */
    let plain = "x.unwrap() and v[0] and panic!(\"no\")";
    let raw = r#"v.expect(" unreachable!() and v[1..2]"#;
    let deep = r##"x.unwrap(" r#"v[0]"# still one raw string"##;
    let ch = '[';
    let escaped = '\'';
    let byte = b"v[0].unwrap()";
    let byte_raw = br#"panic!("no")"#;
    let real = v[0];
    format!("{plain}{raw}{deep}{ch}{escaped}{byte:?}{byte_raw:?}{input}{real}")
}
