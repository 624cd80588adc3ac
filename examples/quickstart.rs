//! Quickstart: the paper's Fig. 3 GOAL schedule, three ways.
//!
//! 1. Build the schedule programmatically with [`GoalBuilder`].
//! 2. Round-trip it through the textual GOAL format.
//! 3. Simulate it on the LogGOPSim backend and print the timeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use atlahs::core::{NsPerByte, Simulation};
use atlahs::goal::{text, GoalBuilder};
use atlahs::lgs::{LgsBackend, LogGopsParams};

fn main() {
    // ---- 1. Fig. 3: rank 0 computes on two streams, then sends ----------
    //
    // rank 0 {
    //     l1: calc 100
    //     l2: calc 200 cpu 0
    //     l3: calc 200 cpu 1
    //     l4: send 10b to 1
    //     l2 requires l1
    //     l3 requires l1
    //     l4 requires l2
    //     l4 requires l3
    // }
    let mut b = GoalBuilder::new(2);
    let l1 = b.calc(0, 100);
    let l2 = b.calc_on(0, 200, 0);
    let l3 = b.calc_on(0, 200, 1);
    let l4 = b.send(0, 1, 10, 0);
    b.requires(0, l2, l1);
    b.requires(0, l3, l1);
    b.requires(0, l4, l2);
    b.requires(0, l4, l3);
    b.recv(1, 0, 10, 0);
    let goal = b.build().expect("Fig. 3 schedule is well-formed");

    // ---- 2. The same schedule as text ------------------------------------
    let text_form = text::to_text(&goal);
    println!("GOAL text format:\n{text_form}");
    let reparsed = text::parse(&text_form).expect("own output must parse");
    assert_eq!(text::to_text(&reparsed), text_form, "text round-trip is stable");

    // ---- 3. Simulate on LogGOPSim ----------------------------------------
    // l2 and l3 run on different compute streams, so they overlap: the
    // send issues at t = 100 + 200, not 100 + 200 + 200.
    let params = LogGopsParams {
        l: 1_000,
        o: 50,
        g: 10,
        big_g: NsPerByte::ps(100),
        big_o: NsPerByte::ZERO,
        s: 0,
    };
    let mut backend = LgsBackend::new(params);
    let report = Simulation::new(&goal).run(&mut backend).expect("completes");

    println!("simulated on LogGOPS {params:?}");
    println!("  rank 0 finished at {} ns", report.rank_finish[0]);
    println!("  rank 1 finished at {} ns", report.rank_finish[1]);
    println!("  makespan: {} ns over {} tasks", report.makespan, report.completed);

    // The overlap is observable: with both calcs on one stream the send
    // could not start before 500 ns.
    assert_eq!(report.rank_finish[0], 100 + 200 + 50, "send CPU phase ends at 350");
    assert!(report.makespan < 2_000);
    println!("\nstream overlap verified: the send issued at 300 ns, not 500 ns");
}
