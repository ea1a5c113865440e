//! Property test: the predecoded execution stream must agree with the
//! `Instruction` accessors (`srcs`/`dst`/`category`) for every instruction
//! the workload generators produce — classic binaries and annotated ones,
//! whose tables also cover the slice bodies past `code_len`.

use amnesiac_compiler::{compile, CompileOptions};
use amnesiac_isa::{predecode, DecodedInst, Program};
use amnesiac_profile::profile_program;
use amnesiac_sim::CoreConfig;
use amnesiac_workloads::{
    build_control, build_extended, build_focal, Scale, CONTROL_NAMES, EXTENDED_NAMES, FOCAL_NAMES,
};

fn assert_agrees(program: &Program, what: &str) {
    let decoded = predecode(program);
    assert_eq!(
        decoded.len(),
        program.instructions.len(),
        "{what}: table must cover the whole stream, slice bodies included"
    );
    for (pc, (inst, d)) in program.instructions.iter().zip(&decoded).enumerate() {
        assert_eq!(d.srcs, inst.srcs(), "{what} pc {pc}: srcs disagree");
        assert_eq!(d.dst(), inst.dst(), "{what} pc {pc}: dst disagrees");
        assert_eq!(
            d.category,
            inst.category(),
            "{what} pc {pc}: category disagrees"
        );
        assert_eq!(*d, DecodedInst::from_inst(inst), "{what} pc {pc}");
    }
}

#[test]
fn predecode_agrees_with_accessors_on_every_generated_workload() {
    for name in FOCAL_NAMES {
        assert_agrees(&build_focal(name, Scale::Test).program, name);
    }
    for name in CONTROL_NAMES {
        assert_agrees(&build_control(name, Scale::Test).program, name);
    }
    for name in EXTENDED_NAMES {
        assert_agrees(&build_extended(name, Scale::Test).program, name);
    }
}

#[test]
fn predecode_agrees_on_annotated_binaries_with_slice_bodies() {
    let config = CoreConfig::paper();
    for name in ["is", "sr", "cg"] {
        let program = build_focal(name, Scale::Test).program;
        let (profile, _) = profile_program(&program, &config).expect("profiling succeeds");
        let (annotated, report) =
            compile(&program, &profile, &CompileOptions::default()).expect("compile succeeds");
        assert_agrees(&annotated, name);
        if report.n_selected() > 0 {
            assert!(
                annotated.instructions.len() > annotated.code_len,
                "{name}: slice bodies live past code_len and must be decoded too"
            );
        }
    }
}
