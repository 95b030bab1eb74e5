// Fixture root: an integration test driving the graph fixtures' entry
// points, the way a real workspace's tests and binaries do. Without a
// root, every `pub fn` of a one-file fixture would be unreached.
#[test]
fn drives_the_fixtures() {
    balance_round(seed, &mut servers);
    balance_round_evolved(seed, &profile);
    sweep_reports(&mut leader, reports, &mut stats);
    forward(&mut leader, report);
    note_attempt(1);
    render(&report);
}
