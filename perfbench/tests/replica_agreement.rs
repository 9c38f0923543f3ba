//! The traced replica must describe the same run as `homc::verify`: on
//! every Table 1 program, the verdict (witness and path included), the
//! CEGAR cycle count and `smt_queries` must be equal. Otherwise the
//! per-layer numbers describe a different program.

use homc::{verify, VerifierOptions, SUITE};
use homc_perfbench::replica::{self, Layers};

#[test]
fn replica_agrees_with_verify_on_the_suite() {
    let mut layers = Layers::default();
    for p in SUITE {
        let out = verify(p.source, &VerifierOptions::default()).expect("suite program compiles");
        let rep = replica::run(p.source, &mut layers).expect("suite program compiles");
        assert_eq!(rep.verdict, out.verdict, "{}: verdict", p.name);
        assert_eq!(rep.cycles, out.stats.cycles, "{}: cycles", p.name);
        assert_eq!(
            rep.smt_queries, out.stats.smt_queries,
            "{}: smt_queries",
            p.name
        );
    }
    assert!(
        layers.attributed() <= layers.total,
        "layers exceed the traced total"
    );
}
