//! Bit-for-bit pin of the workload summary: every `WorkloadSummary`
//! field for two specs at 5k commits, floats compared through
//! `f64::to_bits`. The range checks in `summary.rs` cannot see a
//! refactor of the summary's pass structure move a number; this can.

use rf_core::RunSpec;
use rf_isa::OpKind;
use rf_mem::CacheOrg;
use rf_model::{summarize, WorkloadSummary};

/// One `name value` line per field; floats as their bit patterns.
fn fingerprint(s: &WorkloadSummary) -> String {
    let mut out = Vec::new();
    let mut int = |name: &str, v: u64| out.push(format!("{name} {v}"));
    int("commits", s.commits);
    int("seed", s.seed);
    int("insert_bw", s.insert_bw as u64);
    let o = &s.stats.oracle;
    int("instructions", o.instructions);
    int("loads", o.count(OpKind::Load));
    int("stores", o.count(OpKind::Store));
    int("branches", o.count(OpKind::CondBranch));
    int("ideal_cycles", o.ideal_cycles);
    for (k, &n) in o.kind_counts.iter().enumerate() {
        int(&format!("kind_counts[{k}]"), n);
    }
    for (c, co) in o.classes.iter().enumerate() {
        int(&format!("class[{c}].defs"), co.defs);
        int(&format!("class[{c}].uses"), co.uses);
        int(&format!("class[{c}].dead_defs"), co.dead_defs);
        int(&format!("class[{c}].floor"), co.floor as u64);
        int(&format!("class[{c}].ideal_demand"), co.ideal_demand as u64);
        for (i, m) in co.ideal_cat_means.iter().enumerate() {
            int(&format!("class[{c}].ideal_cat_means[{i}]"), m.to_bits());
        }
        int(&format!("class[{c}].mean_def_use_span"), co.mean_def_use_span.to_bits());
    }
    for (i, ipc) in s.stats.windowed_ipc.iter().enumerate() {
        int(&format!("windowed_ipc[{i}]"), ipc.to_bits());
    }
    int("unbounded_ipc", s.stats.unbounded_ipc.to_bits());
    int("mispredict_rate", s.mispredict_rate.to_bits());
    int("load_miss_rate", s.load_miss_rate.to_bits());
    int("mean_load_delay", s.mean_load_delay.to_bits());
    int("mean_mlp", s.mean_mlp.to_bits());
    format!("bench {}\n{}\n", s.bench, out.join("\n"))
}

fn pinned(spec: RunSpec) -> String {
    fingerprint(&summarize(&spec.commits(5_000)).expect("known benchmark"))
}

#[test]
fn compress_4way_lockup_free_summary_is_pinned() {
    let got = pinned(RunSpec::baseline("compress", 4).cache(CacheOrg::LockupFree));
    assert_eq!(got, COMPRESS_4_LOCKUP_FREE);
}

#[test]
fn tomcatv_8way_perfect_cache_summary_is_pinned() {
    let got = pinned(RunSpec::baseline("tomcatv", 8).cache(CacheOrg::Perfect));
    assert_eq!(got, TOMCATV_8_PERFECT);
}

const COMPRESS_4_LOCKUP_FREE: &str = "\
bench compress\n\
commits 5000\n\
seed 12\n\
insert_bw 6\n\
instructions 5000\n\
loads 1130\n\
stores 456\n\
branches 561\n\
ideal_cycles 1133\n\
kind_counts[0] 2502\n\
kind_counts[1] 47\n\
kind_counts[2] 0\n\
kind_counts[3] 0\n\
kind_counts[4] 0\n\
kind_counts[5] 1130\n\
kind_counts[6] 456\n\
kind_counts[7] 561\n\
kind_counts[8] 304\n\
class[0].defs 3844\n\
class[0].uses 6808\n\
class[0].dead_defs 573\n\
class[0].floor 32\n\
class[0].ideal_demand 1155\n\
class[0].ideal_cat_means[0] 4645821799960052609\n\
class[0].ideal_cat_means[1] 4616862375545431354\n\
class[0].ideal_cat_means[2] 4634538656276181473\n\
class[0].mean_def_use_span 4623223128229775270\n\
class[1].defs 0\n\
class[1].uses 0\n\
class[1].dead_defs 0\n\
class[1].floor 31\n\
class[1].ideal_demand 31\n\
class[1].ideal_cat_means[0] 0\n\
class[1].ideal_cat_means[1] 0\n\
class[1].ideal_cat_means[2] 4629418941960159232\n\
class[1].mean_def_use_span 0\n\
windowed_ipc[0] 4613973129938995840\n\
windowed_ipc[1] 4615424731441617877\n\
windowed_ipc[2] 4616547416988884553\n\
windowed_ipc[3] 4616659074553017869\n\
windowed_ipc[4] 4616659074553017869\n\
windowed_ipc[5] 4616659074553017869\n\
windowed_ipc[6] 4616659074553017869\n\
unbounded_ipc 4616659074553017869\n\
mispredict_rate 4595269153475564973\n\
load_miss_rate 4600893321267282326\n\
mean_load_delay 4620386335229644358\n\
mean_mlp 4619631938961992471\n";

const TOMCATV_8_PERFECT: &str = "\
bench tomcatv\n\
commits 5000\n\
seed 12\n\
insert_bw 12\n\
instructions 5000\n\
loads 1600\n\
stores 300\n\
branches 200\n\
ideal_cycles 437\n\
kind_counts[0] 1500\n\
kind_counts[1] 0\n\
kind_counts[2] 1400\n\
kind_counts[3] 0\n\
kind_counts[4] 0\n\
kind_counts[5] 1600\n\
kind_counts[6] 300\n\
kind_counts[7] 200\n\
kind_counts[8] 0\n\
class[0].defs 2100\n\
class[0].uses 4700\n\
class[0].dead_defs 465\n\
class[0].floor 31\n\
class[0].ideal_demand 51\n\
class[0].ideal_cat_means[0] 4611701477007344553\n\
class[0].ideal_cat_means[1] 4618642379407880089\n\
class[0].ideal_cat_means[2] 4629502031827426222\n\
class[0].mean_def_use_span 4628839373557928435\n\
class[1].defs 2400\n\
class[1].uses 2900\n\
class[1].dead_defs 1423\n\
class[1].floor 31\n\
class[1].ideal_demand 88\n\
class[1].ideal_cat_means[0] 4623346940574687026\n\
class[1].ideal_cat_means[1] 4624176551032360538\n\
class[1].ideal_cat_means[2] 4630581555994398898\n\
class[1].mean_def_use_span 4627864672323135078\n\
windowed_ipc[0] 4614465083139232311\n\
windowed_ipc[1] 4616385099841589173\n\
windowed_ipc[2] 4619006563985532403\n\
windowed_ipc[3] 4622191216705305436\n\
windowed_ipc[4] 4622781537884047768\n\
windowed_ipc[5] 4624642320058081403\n\
windowed_ipc[6] 4626085458615283226\n\
unbounded_ipc 4626255964257438303\n\
mispredict_rate 4581421828931458171\n\
load_miss_rate 0\n\
mean_load_delay 4611686018427387904\n\
mean_mlp 4607182418800017408\n";
