//! The trajectory pins of the test suite: the lines of `pins/pins.txt`,
//! one `<key> <value>` each, which `pins/repin.sh` rewrites from the
//! `pin <key> <value>` lines [`check`] prints.

use std::collections::BTreeMap;

const FILE: &str = include_str!("../../pins/pins.txt");

/// A pin value: the fields of a run's outcome, comma-separated.
pub fn value(fields: &[u64]) -> String {
    let fields: Vec<String> = fields.iter().map(u64::to_string).collect();
    fields.join(",")
}

/// Compares `got`, every `(key, value)` case of the family whose keys
/// start with `family`, with that family's lines of `pins/pins.txt`.
/// Panics once, naming every case whose value differs or that has no
/// line, and every line no case produced. A test calls it last: the
/// panic message's first line tells `pins/repin.sh` that the test
/// failed on its pins alone.
pub fn check(family: &str, got: &[(String, String)]) {
    let mut want: BTreeMap<&str, &str> = FILE
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_once(' ').expect("a `<key> <value>` line"))
        .filter(|(key, _)| key.starts_with(family))
        .collect();
    let mut wrong = Vec::new();
    for (key, value) in got {
        println!("pin {key} {value}");
        match want.remove(key.as_str()) {
            Some(pinned) if pinned == value => {}
            Some(pinned) => wrong.push(format!("{key}: got {value}, want {pinned}")),
            None => wrong.push(format!("{key}: got {value}, no line")),
        }
    }
    wrong.extend(want.keys().map(|key| format!("{key}: no case")));
    assert!(
        wrong.is_empty(),
        "pins/pins.txt disagrees:\n{}",
        wrong.join("\n")
    );
}
