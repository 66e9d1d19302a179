//@ crate: sim
//@ kind: lib
//@ expect: D000@5
// A well-formed, reasoned allow that matches no finding is stale.
// asd-lint: allow(D005) -- anticipated an unwrap that was refactored away
pub fn doubled(x: u64) -> u64 {
    x * 2
}
