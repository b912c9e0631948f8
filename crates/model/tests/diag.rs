//! Scratch diagnostic (ignored): prints per-bench summary terms.
use rf_core::RunSpec;
use rf_isa::IssueClass;

#[test]
#[ignore]
fn dump_summaries() {
    for bench in
        ["compress", "espresso", "gcc1", "doduc", "mdljdp2", "mdljsp2", "ora", "su2cor", "tomcatv"]
    {
        for width in [4usize, 8] {
            let commits = std::env::var("RF_COMMITS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(2_000);
            let s = rf_model::summarize(&RunSpec::baseline(bench, width).commits(commits)).unwrap();
            let n = s.stats.oracle.instructions as f64;
            let ideal_ipc = n / s.stats.oracle.ideal_cycles.max(1) as f64;
            println!(
                "{bench} w{width}: ideal_ipc {ideal_ipc:.2} unbounded {:.2} w32 {:.2} w64 {:.2} mis {:.3} missrate {:.3} mldelay {:.1} mlp {:.2} br_frac {:.3} ld_frac {:.3} mem_frac {:.3}",
                s.stats.unbounded_ipc,
                s.stats.window_ipc(32.0),
                s.stats.window_ipc(64.0),
                s.mispredict_rate,
                s.load_miss_rate,
                s.mean_load_delay,
                s.mean_mlp,
                s.stats.class_fraction(IssueClass::ControlFlow),
                s.stats.kind_fraction(rf_isa::OpKind::Load),
                s.stats.class_fraction(IssueClass::Memory),
            );
            for class in rf_isa::RegClass::ALL {
                let c = &s.stats.oracle.classes[class.index()];
                println!(
                    "  {class:?}: cats {:.1}/{:.1}/{:.1} demand {} floor {} def_frac {:.3} span {:.1}",
                    c.ideal_cat_means[0],
                    c.ideal_cat_means[1],
                    c.ideal_cat_means[2],
                    c.ideal_demand,
                    c.floor,
                    s.stats.def_fraction(class),
                    c.mean_def_use_span,
                );
            }
            println!("  ladder {:?}", s.stats.windowed_ipc.map(|v| (v * 100.0).round() / 100.0));
            println!(
                "  cbr {:.3} fpdiv {:.4} svc_div {:.1}",
                s.stats.kind_fraction(rf_isa::OpKind::CondBranch),
                s.stats.class_fraction(IssueClass::FpDivide),
                s.stats.mean_service(IssueClass::FpDivide),
            );
        }
    }
}
