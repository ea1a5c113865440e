//! Differential oracle for the profiler: a canonical rendering of every
//! [`ProgramProfile`] field the compiler reads, hashed with
//! [`amnesiac_mem::hash128`] and pinned per workload. (`work`, the
//! tracker's own cost counters, is left out: it measures the tracker, not
//! the program.)
//!
//! The digests were taken from the `Rc`-based provenance DAG that the
//! arena replaced, so any drift in what the compiler is handed — a tree
//! shape, a liveness or freshness flag, a store flow, a counter — fails
//! here. A deliberate change to profiler semantics must re-pin them (run
//! with `--nocapture` to print the current digests).

use std::fmt::Write;

use amnesiac_mem::hash128;
use amnesiac_profile::{profile_program, ProgramProfile, ProvNode};
use amnesiac_sim::CoreConfig;
use amnesiac_workloads::{all_workloads, focal_workloads, Scale, Workload};

/// Test-scale digests of all 33 workloads.
const TEST_SCALE: [(&str, u128); 33] = [
    ("mcf", 0xce7d4982b76fc5a5c252f5395b48432e),
    ("sx", 0xba503f69656735b125953cfad3f18d3e),
    ("cg", 0x954071b4769b8965469ce8de2b79cdc4),
    ("is", 0x8d3701d4984a4ed7b3e51da276183356),
    ("ca", 0x4c179e3fac3a986242726985e7137ac9),
    ("fs", 0xb86e9872ec454898f643b2fae281f1fe),
    ("fe", 0xa6a47f6ffe9cb2fa0f8ca192f030b54c),
    ("rt", 0xe8b56b8ae8ab223bb299826aae48a8d8),
    ("bp", 0xc970bc207d2f7da396ed051a4fcf43fc),
    ("bfs", 0xd398bf49187230f14651f8316a5f2997),
    ("sr", 0x73762eca3e91aa2d0a5dd3cf3e4b62c2),
    ("blackscholes", 0x395f0b2b506f69bf3b5535f1c11c5019),
    ("swaptions", 0xc6af0a94e3267b5a6a5cac47f91136c4),
    ("freqmine", 0xf8d315cae1af9d1ce255e3d29fe2ea0f),
    ("kmeans", 0x3798dde8dcfce076f18bc5fcc685143e),
    ("hotspot", 0xdad59a9c38ca0734973901514a8c01de),
    ("perlbench", 0x4b87ef9e53d13ae039e6c2bd808dc0d0),
    ("gobmk", 0xaa6cd98bf3bc6d2ce38819fb3de52f1b),
    ("calculix", 0x84d9550fb804fc2a7b130303ab1c8375),
    ("GemsFDTD", 0x6f04f3f013944dd96d4b1b5cda6543be),
    ("libquantum", 0x81c16b47945f443b1fd97fa37321ad77),
    ("soplex", 0x9f9955e2eb5959fc66956b33598e49c4),
    ("lbm", 0x11c38b6806eafb99aaccad80bb31a912),
    ("omnetpp", 0x5af1d31165bd7144ed407ce21915c13d),
    ("mg", 0xc43127bb342cfeeb99a6752084c4e57a),
    ("ft", 0x38e2a3d919aed0c53acc851aa4c17d03),
    ("x264", 0xdbae2cc69541451ebdad8d9b1ea87792),
    ("dedup", 0x7355b9f79f025d3afdeb8f2bb8311adf),
    ("fluidanimate", 0x46382d5760ae8a479b194bdb515f0d17),
    ("streamcluster", 0x80bcc49fb0bd0301bb41a7f9e37a2e49),
    ("bodytrack", 0xf65ec4b315d26caa23a8b4dac731cedb),
    ("nw", 0x97ecb33e5da3a32800f8d33b8b6aeef1),
    ("particlefilter", 0x92a5702eddf5d46cd282312e578621f6),
];

/// Paper-scale digests of the 11 focal benches.
const PAPER_SCALE: [(&str, u128); 11] = [
    ("mcf", 0xd539942f79457812a559e29a8d1f1be7),
    ("sx", 0xd89006078b9d118aa5219b755d10bccb),
    ("cg", 0x86fdcbde20e39b905b73f9694b4e1857),
    ("is", 0x22fbe0923a182a7479cea4f4c8a57ab9),
    ("ca", 0xa8baa850207f58b5e9d609373507477c),
    ("fs", 0xf09b6c7dcd3ba712af22c0343742406f),
    ("fe", 0xa9c0a9d6275848283c8927da7e353bf5),
    ("rt", 0x26c1552ba1a079e84d388b1098b11d4c),
    ("bp", 0x33f99c161cc89752089b6d595f01ccfd),
    ("bfs", 0x1a65c4874f842a3a6bc2a04de24c8e79),
    ("sr", 0x603ad0552e882b5eb2276eb05836198f),
];

/// Renders one tree node and its subtree, depth-first.
fn render_tree(out: &mut String, node: &ProvNode, indent: usize) {
    let _ = writeln!(
        out,
        "{:indent$}node pc={} inst={:?}",
        "", node.pc, node.inst
    );
    for (j, operand) in node.operands.iter().enumerate() {
        let Some(op) = operand else { continue };
        let _ = writeln!(
            out,
            "{:indent$} op{j} reg={} live={} unknown={} fresh={} child={}",
            "",
            op.reg.index(),
            op.always_live,
            op.unknown,
            op.checkpoint_fresh,
            op.child.is_some(),
        );
        if let Some(child) = &op.child {
            render_tree(out, child, indent + 2);
        }
    }
}

/// The canonical text of a profile: every field, in a fixed order.
fn render(profile: &ProgramProfile) -> String {
    let mut out = String::new();
    for (pc, site) in &profile.loads {
        let _ = writeln!(
            out,
            "load {pc} pc={} count={} levels={:?} locality_bits={:#x} unswappable={:?}",
            site.pc,
            site.count,
            site.levels.by_level,
            site.value_locality().to_bits(),
            site.unswappable,
        );
        if let Some(tree) = &site.tree {
            render_tree(&mut out, tree, 2);
        }
    }
    for (pc, store) in &profile.stores {
        let _ = writeln!(
            out,
            "store {pc} count={} unread={} consumers={:?}",
            store.count, store.unread, store.consumers
        );
    }
    let _ = writeln!(out, "all_loads={:?}", profile.all_loads.by_level);
    let _ = writeln!(out, "instructions={}", profile.instructions);
    let _ = writeln!(out, "pc_counts={:?}", profile.pc_counts);
    out
}

fn digest(workload: &Workload) -> u128 {
    let (profile, _) = profile_program(&workload.program, &CoreConfig::paper())
        .unwrap_or_else(|e| panic!("{} profiles: {e}", workload.name));
    hash128(&[render(&profile).as_bytes()])
}

/// Compares every workload's digest with its pinned value, printing all of
/// them first so a deliberate re-pin is one copy away.
fn check(workloads: &[Workload], pinned: &[(&str, u128)]) {
    let got: Vec<(&str, u128)> = workloads.iter().map(|w| (w.name, digest(w))).collect();
    for (name, d) in &got {
        println!("    ({name:?}, {d:#034x}),");
    }
    assert_eq!(got.len(), pinned.len(), "workload count changed");
    let drifted: Vec<&str> = got
        .iter()
        .zip(pinned)
        .filter(|(g, p)| g != p)
        .map(|(g, _)| g.0)
        .collect();
    assert!(drifted.is_empty(), "profile digests drifted: {drifted:?}");
}

#[test]
fn test_scale_profiles_match_pinned_digests() {
    check(&all_workloads(Scale::Test), &TEST_SCALE);
}

#[test]
#[ignore = "paper scale: run with `cargo test --release -p amnesiac-profile -- --ignored`"]
fn paper_scale_profiles_match_pinned_digests() {
    check(&focal_workloads(Scale::Paper), &PAPER_SCALE);
}

#[test]
fn rendering_sees_every_operand_flag() {
    // flipping any one flag of a tree must change the digest
    let w = &all_workloads(Scale::Test)[0];
    let (profile, _) = profile_program(&w.program, &CoreConfig::paper()).expect("profiles");
    let base = hash128(&[render(&profile).as_bytes()]);
    let site = profile
        .loads
        .values()
        .find(|s| s.tree.as_ref().is_some_and(|t| t.operands[0].is_some()))
        .expect("some site has a tree with an operand");
    for flip in 0..3 {
        let mut changed = profile.clone();
        let tree = changed
            .loads
            .get_mut(&site.pc)
            .and_then(|s| s.tree.as_mut());
        let op = tree
            .and_then(|t| t.operands[0].as_mut())
            .expect("same site");
        match flip {
            0 => op.always_live = !op.always_live,
            1 => op.unknown = !op.unknown,
            _ => op.checkpoint_fresh = !op.checkpoint_fresh,
        }
        assert_ne!(hash128(&[render(&changed).as_bytes()]), base, "flag {flip}");
    }
}
