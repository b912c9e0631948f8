//! Exporters and analysis for [`rf_prof`] self-profiles.
//!
//! `rf-prof` (the crate the span sites live in, below `rf-core` in the
//! dependency graph) produces [`ProfileNode`] trees; this module owns
//! everything that consumes them:
//!
//! - [`to_value`] / [`from_value`] — the ledger's JSON encoding of a
//!   profile tree (embedded per-harness in ledger records since
//!   schema v4);
//! - [`collapsed`] — collapsed-stack text (`a;b;c <self-µs>` lines),
//!   the interchange format every standard flamegraph renderer
//!   (`flamegraph.pl`, inferno, speedscope) accepts;
//! - [`text_table`] — the human rendering behind `rfstudy profile
//!   --format text`;
//! - [`phase_shares`] — per-span-name shares of attributed wall time,
//!   the quantity `rfstudy report`'s profile-drift section tracks
//!   across ledger records.
//!
//! Wall times are inherently noisy, so nothing here ever feeds the
//! determinism-sensitive metric payload: `ledger::metric_payload` strips
//! the whole `profile` member.

use crate::json::Value;
pub use rf_prof::ProfileNode;

/// Encodes a profile tree as a ledger JSON value:
/// `{"name": ..., "ns": ..., "n": ..., "children": [...]}`.
///
/// Durations stay in integer nanoseconds (exactly representable: f64
/// holds integers to 2^53, about 104 days of nanoseconds).
pub fn to_value(node: &ProfileNode) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::String(node.name.clone())),
        ("ns".to_owned(), Value::Number(node.total_ns as f64)),
        ("n".to_owned(), Value::Number(node.count as f64)),
        (
            "children".to_owned(),
            Value::Array(node.children.iter().map(to_value).collect()),
        ),
    ])
}

/// Decodes a tree encoded by [`to_value`]. `None` on any shape mismatch
/// (pre-v4 records have no profile member at all).
pub fn from_value(v: &Value) -> Option<ProfileNode> {
    let name = v.get_str("name")?.to_owned();
    let total_ns = v.get_f64("ns")? as u64;
    let count = v.get_f64("n")? as u64;
    let children = v
        .get("children")?
        .as_array()?
        .iter()
        .map(from_value)
        .collect::<Option<Vec<_>>>()?;
    Some(ProfileNode { name, total_ns, count, children })
}

/// Renders a profile as collapsed-stack text: one line per node with
/// exclusive time, `frame;frame;frame <self-microseconds>`. The
/// synthetic root frame is omitted, zero-self nodes are skipped, and
/// the tree should be normalized first so the output is canonical.
pub fn collapsed(root: &ProfileNode) -> String {
    let mut out = String::new();
    root.walk(&mut |path, node| {
        let self_us = node.self_ns() / 1_000;
        if self_us == 0 || path.is_empty() {
            return; // the root frame and sub-microsecond residues
        }
        // `path` includes the root name; drop it from the stack.
        for frame in &path[1..] {
            out.push_str(frame);
            out.push(';');
        }
        out.push_str(&node.name);
        out.push(' ');
        out.push_str(&self_us.to_string());
        out.push('\n');
    });
    out
}

/// Renders the top-`top` spans by exclusive time as an aligned text
/// table (share of total exclusive time, exclusive and inclusive
/// seconds, entry count, span path). The share denominator is the sum
/// of every node's exclusive time — not wall time — so the column is
/// internally consistent even when sampled spans over-attribute (their
/// scaled durations amplify clock-read overhead; see DESIGN.md §7.1).
pub fn text_table(root: &ProfileNode, top: usize) -> String {
    let mut total = 0u64;
    root.walk(&mut |_, node| total += node.self_ns());
    let total = total.max(1) as f64;
    let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
    root.walk(&mut |path, node| {
        if path.is_empty() {
            return;
        }
        let mut name = path[1..].join(";");
        if !name.is_empty() {
            name.push(';');
        }
        name.push_str(&node.name);
        rows.push((name, node.self_ns(), node.total_ns, node.count));
    });
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut out = String::new();
    out.push_str("  self%     self(s)     incl(s)        count  span\n");
    for (name, self_ns, total_ns, count) in rows.into_iter().take(top) {
        out.push_str(&format!(
            "{:6.2}  {:10.4}  {:10.4}  {:11}  {}\n",
            self_ns as f64 / total * 100.0,
            self_ns as f64 / 1e9,
            total_ns as f64 / 1e9,
            count,
            name,
        ));
    }
    out
}

/// Aggregates exclusive time by span *name* (summed across every place
/// the name appears in the tree) and returns each name's percentage
/// share of total attributed time, sorted descending. This is the
/// phase-level quantity whose longitudinal drift `rfstudy report`
/// watches: a kernel PR that flattens the cache model shows up as
/// `cache.*` losing share.
pub fn phase_shares(root: &ProfileNode) -> Vec<(String, f64)> {
    let mut by_name: Vec<(String, u64)> = Vec::new();
    root.walk(&mut |path, node| {
        if path.is_empty() {
            return;
        }
        let self_ns = node.self_ns();
        match by_name.iter_mut().find(|(n, _)| *n == node.name) {
            Some((_, ns)) => *ns += self_ns,
            None => by_name.push((node.name.clone(), self_ns)),
        }
    });
    let total: u64 = by_name.iter().map(|(_, ns)| ns).sum();
    let total = total.max(1) as f64;
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / total * 100.0))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    shares
}

/// The suite-level profile of a parsed ledger record: its `profile`
/// tree, normalized. `None` when the record carries none (a run with
/// `RF_PROFILE` off, or a record older than schema v10).
pub fn suite_profile_of_record(record: &Value) -> Option<ProfileNode> {
    let mut tree = from_value(record.get("profile")?)?;
    tree.normalize();
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileNode {
        let mut root = ProfileNode::new("all");
        let mut sim = ProfileNode { name: "run.simulate".into(), total_ns: 10_000_000, count: 2, children: vec![] };
        sim.children.push(ProfileNode {
            name: "cycle.issue".into(),
            total_ns: 4_000_000,
            count: 1_280,
            children: vec![ProfileNode {
                name: "cache.load".into(),
                total_ns: 1_000_000,
                count: 640,
                children: vec![],
            }],
        });
        root.children.push(sim);
        root.children.push(ProfileNode {
            name: "run.generate".into(),
            total_ns: 2_000_000,
            count: 2,
            children: vec![],
        });
        root.normalize();
        root
    }

    #[test]
    fn value_round_trip_preserves_the_tree() {
        let tree = sample();
        let v = to_value(&tree);
        assert_eq!(from_value(&v), Some(tree.clone()));
        // The rendered JSON parses back through the ledger's own parser.
        let reparsed = crate::json::parse(&v.to_string()).expect("valid JSON");
        assert_eq!(from_value(&reparsed), Some(tree));
    }

    #[test]
    fn collapsed_stacks_carry_self_time_in_microseconds() {
        let text = collapsed(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "run.generate 2000",
                "run.simulate 6000",
                "run.simulate;cycle.issue 3000",
                "run.simulate;cycle.issue;cache.load 1000",
            ]
        );
        // Every line is `frames <integer>` — what flamegraph.pl expects.
        for line in lines {
            let (stack, n) = line.rsplit_once(' ').expect("space-separated");
            assert!(!stack.is_empty());
            n.parse::<u64>().expect("integer sample count");
        }
    }

    #[test]
    fn text_table_ranks_by_exclusive_time() {
        let table = text_table(&sample(), 2);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + top 2");
        assert!(lines[1].contains("run.simulate"), "{table}");
        assert!(lines[2].contains("cycle.issue"), "{table}");
        assert!(lines[1].trim_start().starts_with("50.00"), "{table}");
    }

    #[test]
    fn phase_shares_sum_to_one_hundred() {
        let shares = phase_shares(&sample());
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-9, "{total}");
        assert_eq!(shares[0].0, "run.simulate");
        let cache = shares.iter().find(|(n, _)| n == "cache.load").expect("cache span");
        assert!((cache.1 - 100.0 / 12.0).abs() < 0.01, "{}", cache.1);
    }

    #[test]
    fn suite_profile_is_the_record_tree() {
        let tree = sample();
        let record = |profile: Value| Value::Object(vec![("profile".to_owned(), profile)]);
        let suite = suite_profile_of_record(&record(to_value(&tree))).expect("profiled record");
        let mut want = tree.clone();
        want.normalize();
        assert_eq!(suite, want);
        assert_eq!(suite_profile_of_record(&record(Value::Null)), None);
        assert_eq!(suite_profile_of_record(&Value::Object(vec![])), None);
    }
}
