//! Golden oracle for the two program codecs: a hash of the assembly text
//! and of the binary image of every test-scale workload, plus the
//! disassembly and image of three annotated binaries (so `rcmp`, `rtn` and
//! `rec` are covered), hashed with [`amnesiac_mem::hash128`] and pinned.
//!
//! Images are an on-disk format (the compile cache keys and stores them),
//! so any drift in a mnemonic, an opcode or sub-op byte, or an operand
//! layout fails here. A deliberate format change must re-pin them (run with
//! `--nocapture` to print the current digests).

use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_isa::{disassemble, encode_program, to_asm};
use amnesiac_mem::hash128;
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_workloads::{all_workloads, build_focal, Scale};

/// `to_asm` + `encode_program` digests of all 33 test-scale workloads.
const CLASSIC: [(&str, u128); 33] = [
    ("mcf", 0x1846154821a8a77fb5de0dc13d21fcd0),
    ("sx", 0x04f9fec7cdeca8cd253cab53328fb925),
    ("cg", 0x0100df4cd1e21b5c3281cad02023ea4b),
    ("is", 0xc19eace116485885c2f04ab8eb36edd8),
    ("ca", 0x7b41499f422f21bb39f78e7408fa641b),
    ("fs", 0x89a9a7d9397692b12b0548deac5667ee),
    ("fe", 0x666aa75805567b7833dce615df9f1aba),
    ("rt", 0xbb2acb60ea49753854845ae0af3f1600),
    ("bp", 0xe1f34cc09bbd58db7d4fe368bc88f7fc),
    ("bfs", 0x5a387e419237ccf90e1f78a8515f0013),
    ("sr", 0x92ab0d198d4298f67fe249b9d0dc44be),
    ("blackscholes", 0x69590e994649baab577374917abedefd),
    ("swaptions", 0x0be32988f4af6038ba905b6e16f759f0),
    ("freqmine", 0xf0357d79828b27829a73be1fb6aa00b5),
    ("kmeans", 0x23878fa6668bcfdf9f918d8c7955df34),
    ("hotspot", 0x119f297c849dc36c57fc46e126965f35),
    ("perlbench", 0x2c7a649cef290df1e7453b7c56078f5b),
    ("gobmk", 0x1c14a7c325b63852bdd20d9522fb768d),
    ("calculix", 0xc44c34a62a2320f6cb7a9e98f1e46ad6),
    ("GemsFDTD", 0x26e2841153f9b31826ef035df930e141),
    ("libquantum", 0x7591f33234ea82da016971f7bea6528f),
    ("soplex", 0xf8352bc5d216f9df713d5b3b6722a7c6),
    ("lbm", 0x49c6953fbc485bb075520948cfbe1248),
    ("omnetpp", 0x29af4f028302108ed919d8fdb414c1c2),
    ("mg", 0x110ef376f5fc0e6b4c722f6f84bb3fc0),
    ("ft", 0x5a4015f2d514bef9418bdabebc1206e1),
    ("x264", 0x778314df986867eb0075f5ce69f17fb8),
    ("dedup", 0x4cfa4aaef57c70693539dae4198e426c),
    ("fluidanimate", 0xcd5be7915518831ae07e398a121a973c),
    ("streamcluster", 0x68ea68a5b19c952e9b04c17670ad63a6),
    ("bodytrack", 0xc6a0b1cc54fe2a58e6f87c7fd9910688),
    ("nw", 0x76a1ae7c61435d82b8f68e3a5ada509c),
    ("particlefilter", 0xfe25c3583d4c3f09e7bd790accc49020),
];

/// `disassemble` + `encode_program` digests of annotated binaries compiled
/// under `CompileOptions::default()` at test scale: focal benches whose
/// slices survive at this scale (`rt` also carries a `rec`).
const ANNOTATED: [(&str, u128); 3] = [
    ("is", 0x6d6054717c90f4e89e8871ad99ba165b),
    ("rt", 0x10fa693cc88dffd4d9f8991aebf6391b),
    ("bfs", 0xe51f3a59739bc6cf0df4704fb0aadda2),
];

/// Compares computed digests with the pinned ones, printing all of them
/// first so a deliberate re-pin is one copy away.
fn check(got: &[(&str, u128)], pinned: &[(&str, u128)]) {
    for (name, d) in got {
        println!("    ({name:?}, {d:#034x}),");
    }
    assert_eq!(got.len(), pinned.len(), "workload count changed");
    let drifted: Vec<&str> = got
        .iter()
        .zip(pinned)
        .filter(|(g, p)| g != p)
        .map(|(g, _)| g.0)
        .collect();
    assert!(drifted.is_empty(), "image digests drifted: {drifted:?}");
}

#[test]
fn classic_asm_and_images_match_pinned_digests() {
    let got: Vec<(&str, u128)> = all_workloads(Scale::Test)
        .iter()
        .map(|w| {
            let text = to_asm(&w.program);
            let image = encode_program(&w.program);
            (w.name, hash128(&[text.as_bytes(), &image]))
        })
        .collect();
    check(&got, &CLASSIC);
}

#[test]
fn annotated_listings_and_images_match_pinned_digests() {
    let config = CoreConfig::paper();
    let mut listings = String::new();
    let got: Vec<(&str, u128)> = ANNOTATED
        .iter()
        .map(|&(name, _)| {
            let program = build_focal(name, Scale::Test).program;
            let (profile, _) = profile_program(&program, &config).expect("profiles");
            let (annotated, report) =
                compile(&program, &profile, &CompileOptions::default()).expect("compiles");
            assert!(report.n_selected() > 0, "{name}: no slice survives");
            let listing = disassemble(&annotated);
            let image = encode_program(&annotated);
            listings.push_str(&listing);
            (name, hash128(&[listing.as_bytes(), &image]))
        })
        .collect();
    for mnemonic in ["rcmp ", "rtn ", "rec "] {
        assert!(listings.contains(mnemonic), "no `{mnemonic}` is pinned");
    }
    check(&got, &ANNOTATED);
}
