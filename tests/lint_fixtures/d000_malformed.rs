//@ crate: sim
//@ kind: lib
//@ expect: D000@5, D000@6
// Typo'd directive verbs and non-parenthesised code lists fail loudly.
// asd-lint: denylist(D005) -- wrong verb
// asd-lint: allow D005 -- missing parentheses
pub fn passthrough(x: u64) -> u64 {
    x
}
