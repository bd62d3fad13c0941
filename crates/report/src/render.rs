//! Deterministic renderers: Markdown, self-contained HTML, and JSON.
//!
//! All three are pure functions of the [`Report`] value. Floats are
//! printed with fixed precision (`{:.3}` seconds, `{:.1}` percent,
//! `{:.2}` SVG coordinates), so a given input directory always renders
//! to the same bytes — the property the CI report-smoke job `cmp`s.

use std::fmt::Write as _;

use jtune_util::json::{self, JsonObject};

use crate::load::Report;
use crate::summary::{SessionSummary, TechniqueStats};

/// Flag-impact rows shown per session (the table is sorted by trial
/// count, so the cut keeps the most-explored flags).
const FLAG_ROWS: usize = 20;

fn secs(v: f64) -> String {
    format!("{v:.3}")
}

fn opt_secs(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), secs)
}

fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Flag-impact rows in display order: most-tried first, ties by name.
fn flag_rows(s: &SessionSummary) -> Vec<&crate::summary::FlagImpact> {
    let mut rows: Vec<_> = s.flags.iter().collect();
    rows.sort_by(|a, b| b.trials.cmp(&a.trials).then(a.flag.cmp(&b.flag)));
    rows
}

/// Render the report as Markdown.
pub fn to_markdown(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# jtune report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Input: `{}` — {} session(s)",
        report.title,
        report.sessions.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Overview");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| session | program | technique | default (s) | best (s) | improvement | evals | spent (s) |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for s in &report.sessions {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            s.label,
            s.program,
            if s.technique.is_empty() {
                "—"
            } else {
                &s.technique
            },
            secs(s.default_secs),
            secs(s.best_secs),
            pct(s.improvement_percent),
            s.counters.evaluations,
            secs(s.spent_secs),
        );
    }
    if let Some(d) = &report.daemon {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Daemon");
        let _ = writeln!(out);
        let _ = writeln!(out, "| counter | value |");
        let _ = writeln!(out, "|---|---|");
        for (name, v) in d.rows() {
            let _ = writeln!(out, "| {name} | {v} |");
        }
    }
    for s in &report.sessions {
        let _ = writeln!(out);
        let _ = writeln!(out, "## {}", s.label);
        let _ = writeln!(out);
        let seed = s.seed.map_or_else(|| "—".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "Program `{}`, seed {}, budget {} s; best delta: {}",
            s.program,
            seed,
            secs(s.budget_secs),
            if s.best_delta.is_empty() {
                "(default configuration)".to_string()
            } else {
                format!("`{}`", s.best_delta.join(" "))
            }
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "### Convergence");
        let _ = writeln!(out);
        let _ = writeln!(out, "| eval | spent (s) | best (s) |");
        let _ = writeln!(out, "|---|---|---|");
        for p in &s.convergence {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                p.index,
                secs(p.spent_secs),
                secs(p.best_secs)
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "### Techniques");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| technique | proposals | failures | wins | reward (s) | best (s) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for t in &s.techniques {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                t.name,
                t.proposals,
                t.failures,
                t.wins,
                secs(t.reward_secs),
                opt_secs(t.best_secs),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "### Counters");
        let _ = writeln!(out);
        let _ = writeln!(out, "| counter | value |");
        let _ = writeln!(out, "|---|---|");
        let c = &s.counters;
        for (name, v) in [
            ("evaluations", c.evaluations),
            ("failures", c.failures),
            ("cache hits", c.cache_hits),
            ("duplicates suppressed", c.suppressed),
            ("racing aborts", c.aborted),
            ("retries", c.retried),
            ("quarantined", c.quarantined),
            ("screened", c.screened),
            ("model fits", c.model_fits),
            ("checkpoints", c.checkpoints),
        ] {
            let _ = writeln!(out, "| {name} | {v} |");
        }
        let _ = writeln!(out, "| budget saved (s) | {} |", secs(c.saved_secs));
        let _ = writeln!(out);
        let _ = writeln!(out, "### Flag impact");
        let _ = writeln!(out);
        let rows = flag_rows(s);
        if rows.is_empty() {
            let _ = writeln!(out, "No `-XX:` flags appeared in any trial delta.");
        } else {
            let _ = writeln!(
                out,
                "| flag | trials | ok | best (s) | mean (s) | in best |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|");
            for f in rows.iter().take(FLAG_ROWS) {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} |",
                    f.flag,
                    f.trials,
                    f.successes,
                    opt_secs(f.best_secs),
                    opt_secs(f.mean_secs),
                    if f.in_best > 0 { "yes" } else { "" },
                );
            }
            if rows.len() > FLAG_ROWS {
                let _ = writeln!(
                    out,
                    "\n({} more flags omitted; use `--format json` for the full table)",
                    rows.len() - FLAG_ROWS
                );
            }
        }
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Inline SVG of a session's convergence curve (step-after polyline).
/// Returns an empty string when there are fewer than two points.
fn convergence_svg(s: &SessionSummary) -> String {
    const W: f64 = 640.0;
    const H: f64 = 180.0;
    const PAD: f64 = 8.0;
    if s.convergence.len() < 2 {
        return String::new();
    }
    let x_max = s
        .convergence
        .last()
        .map(|p| p.spent_secs)
        .unwrap_or(1.0)
        .max(1e-9);
    let y_min = s
        .convergence
        .iter()
        .map(|p| p.best_secs)
        .fold(f64::INFINITY, f64::min);
    let y_max = s
        .convergence
        .iter()
        .map(|p| p.best_secs)
        .fold(f64::NEG_INFINITY, f64::max);
    let y_span = (y_max - y_min).max(1e-9);
    let x = |t: f64| PAD + (W - 2.0 * PAD) * (t / x_max);
    let y = |v: f64| PAD + (H - 2.0 * PAD) * (1.0 - (v - y_min) / y_span);
    let mut points = String::new();
    let mut last_y = y(s.convergence[0].best_secs);
    for (i, p) in s.convergence.iter().enumerate() {
        let px = x(p.spent_secs);
        let py = y(p.best_secs);
        if i > 0 {
            // Step: hold the previous best until this evaluation landed.
            let _ = write!(points, " {px:.2},{last_y:.2}");
        }
        let _ = write!(points, " {px:.2},{py:.2}");
        last_y = py;
    }
    format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"convergence\">\
<polyline fill=\"none\" stroke=\"#2a6\" stroke-width=\"2\" points=\"{}\"/>\
<text x=\"{PAD}\" y=\"{:.2}\" class=\"axis\">{} s</text>\
<text x=\"{PAD}\" y=\"{:.2}\" class=\"axis\">{} s</text>\
</svg>",
        points.trim_start(),
        PAD + 12.0,
        secs(y_max),
        H - PAD - 2.0,
        secs(y_min),
    )
}

/// Render the report as one self-contained HTML page: inline CSS,
/// inline SVG, no external assets.
pub fn to_html(report: &Report) -> String {
    // The Markdown tables carry exactly the data the page needs; rather
    // than duplicating every table twice, render them into <pre> blocks
    // and add the SVG convergence charts HTML can express and Markdown
    // cannot.
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>jtune report — {}</title>",
        html_escape(&report.title)
    );
    out.push_str(
        "<style>\n\
body{font:14px/1.45 system-ui,sans-serif;max-width:60rem;margin:2rem auto;padding:0 1rem;color:#123}\n\
h1,h2{border-bottom:1px solid #ccd;padding-bottom:.2rem}\n\
table{border-collapse:collapse;margin:.6rem 0}\n\
td,th{border:1px solid #ccd;padding:.2rem .6rem;text-align:right}\n\
td:first-child,th:first-child{text-align:left}\n\
svg{width:100%;height:auto;background:#f6f8fa;border:1px solid #ccd}\n\
svg .axis{font:10px system-ui,sans-serif;fill:#567}\n\
code{background:#f0f2f5;padding:0 .2rem}\n\
</style>\n</head>\n<body>\n",
    );
    let _ = writeln!(out, "<h1>jtune report</h1>");
    let _ = writeln!(
        out,
        "<p>Input: <code>{}</code> — {} session(s)</p>",
        html_escape(&report.title),
        report.sessions.len()
    );
    let _ = writeln!(out, "<h2>Overview</h2>");
    out.push_str("<table><tr><th>session</th><th>program</th><th>default (s)</th><th>best (s)</th><th>improvement</th><th>evals</th></tr>\n");
    for s in &report.sessions {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            html_escape(&s.label),
            html_escape(&s.program),
            secs(s.default_secs),
            secs(s.best_secs),
            pct(s.improvement_percent),
            s.counters.evaluations,
        );
    }
    out.push_str("</table>\n");
    if let Some(d) = &report.daemon {
        let _ = writeln!(out, "<h2>Daemon</h2>");
        out.push_str("<table><tr><th>counter</th><th>value</th></tr>\n");
        for (name, v) in d.rows() {
            let _ = writeln!(out, "<tr><td>{name}</td><td>{v}</td></tr>");
        }
        out.push_str("</table>\n");
    }
    for s in &report.sessions {
        let _ = writeln!(out, "<h2>{}</h2>", html_escape(&s.label));
        let _ = writeln!(
            out,
            "<p>Program <code>{}</code>, best delta: <code>{}</code></p>",
            html_escape(&s.program),
            if s.best_delta.is_empty() {
                "(default configuration)".to_string()
            } else {
                html_escape(&s.best_delta.join(" "))
            }
        );
        let svg = convergence_svg(s);
        if !svg.is_empty() {
            let _ = writeln!(out, "<h3>Convergence</h3>");
            let _ = writeln!(out, "{svg}");
        }
        let _ = writeln!(out, "<h3>Techniques</h3>");
        out.push_str("<table><tr><th>technique</th><th>proposals</th><th>failures</th><th>wins</th><th>reward (s)</th><th>best (s)</th></tr>\n");
        for t in &s.techniques {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                html_escape(&t.name),
                t.proposals,
                t.failures,
                t.wins,
                secs(t.reward_secs),
                opt_secs(t.best_secs),
            );
        }
        out.push_str("</table>\n");
        let _ = writeln!(out, "<h3>Counters</h3>");
        let c = &s.counters;
        out.push_str("<table><tr><th>counter</th><th>value</th></tr>\n");
        for (name, v) in [
            ("evaluations", c.evaluations),
            ("failures", c.failures),
            ("cache hits", c.cache_hits),
            ("duplicates suppressed", c.suppressed),
            ("racing aborts", c.aborted),
            ("retries", c.retried),
            ("quarantined", c.quarantined),
            ("screened", c.screened),
            ("model fits", c.model_fits),
            ("checkpoints", c.checkpoints),
        ] {
            let _ = writeln!(out, "<tr><td>{name}</td><td>{v}</td></tr>");
        }
        let _ = writeln!(
            out,
            "<tr><td>budget saved (s)</td><td>{}</td></tr>",
            secs(c.saved_secs)
        );
        out.push_str("</table>\n");
        let _ = writeln!(out, "<h3>Flag impact</h3>");
        let rows = flag_rows(s);
        if rows.is_empty() {
            out.push_str("<p>No <code>-XX:</code> flags appeared in any trial delta.</p>\n");
        } else {
            out.push_str("<table><tr><th>flag</th><th>trials</th><th>ok</th><th>best (s)</th><th>mean (s)</th><th>in best</th></tr>\n");
            for f in rows.iter().take(FLAG_ROWS) {
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    html_escape(&f.flag),
                    f.trials,
                    f.successes,
                    opt_secs(f.best_secs),
                    opt_secs(f.mean_secs),
                    if f.in_best > 0 { "yes" } else { "" },
                );
            }
            out.push_str("</table>\n");
        }
    }
    out.push_str("</body>\n</html>\n");
    out
}

fn technique_json(t: &TechniqueStats) -> String {
    JsonObject::new()
        .str("name", &t.name)
        .u64("proposals", t.proposals)
        .u64("failures", t.failures)
        .u64("wins", t.wins)
        .f64("reward_secs", t.reward_secs)
        .opt_f64("best_secs", t.best_secs)
        .finish()
}

fn session_json(s: &SessionSummary) -> String {
    let convergence: Vec<String> = s
        .convergence
        .iter()
        .map(|p| {
            JsonObject::new()
                .u64("index", p.index)
                .f64("spent_secs", p.spent_secs)
                .f64("best_secs", p.best_secs)
                .finish()
        })
        .collect();
    let techniques: Vec<String> = s.techniques.iter().map(technique_json).collect();
    let flags: Vec<String> = s
        .flags
        .iter()
        .map(|f| {
            JsonObject::new()
                .str("flag", &f.flag)
                .u64("trials", f.trials)
                .u64("successes", f.successes)
                .opt_f64("best_secs", f.best_secs)
                .opt_f64("mean_secs", f.mean_secs)
                .bool("in_best", f.in_best > 0)
                .finish()
        })
        .collect();
    let c = &s.counters;
    let counters = JsonObject::new()
        .u64("evaluations", c.evaluations)
        .u64("failures", c.failures)
        .u64("cache_hits", c.cache_hits)
        .u64("suppressed", c.suppressed)
        .u64("aborted", c.aborted)
        .u64("retried", c.retried)
        .u64("quarantined", c.quarantined)
        .u64("screened", c.screened)
        .u64("model_fits", c.model_fits)
        .u64("checkpoints", c.checkpoints)
        .f64("saved_secs", c.saved_secs)
        .finish();
    let mut o = JsonObject::new()
        .str("label", &s.label)
        .str("program", &s.program)
        .str("technique", &s.technique)
        .f64("budget_secs", s.budget_secs);
    o = match s.seed {
        Some(seed) => o.u64("seed", seed),
        None => o.raw("seed", "null"),
    };
    o.f64("default_secs", s.default_secs)
        .f64("best_secs", s.best_secs)
        .f64("improvement_percent", s.improvement_percent)
        .f64("spent_secs", s.spent_secs)
        .str_array("best_delta", &s.best_delta)
        .raw("convergence", &json::array_of(&convergence))
        .raw("techniques", &json::array_of(&techniques))
        .raw("counters", &counters)
        .raw("flags", &json::array_of(&flags))
        .finish()
}

/// Render the report as one JSON object.
pub fn to_json(report: &Report) -> String {
    let sessions: Vec<String> = report.sessions.iter().map(session_json).collect();
    // Keys match the daemon's own `server-metrics.json` snapshot.
    let daemon = report.daemon.as_ref().map_or_else(
        || "null".to_string(),
        |d| {
            JsonObject::new()
                .u64("connections_rejected", d.connections_rejected)
                .u64("frames_rejected", d.frames_rejected)
                .u64("clients_retried", d.clients_retried)
                .u64("workers_reconnected", d.workers_reconnected)
                .u64("workers_registered", d.workers_registered)
                .u64("trials_leased", d.trials_leased)
                .u64("leases_expired", d.leases_expired)
                .finish()
        },
    );
    JsonObject::new()
        .str("title", &report.title)
        .raw("sessions", &json::array_of(&sessions))
        .raw("daemon", &daemon)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{ConvergencePoint, FlagImpact, SessionCounters};

    fn sample() -> Report {
        Report {
            title: "e1_specjvm".into(),
            sessions: vec![SessionSummary {
                label: "compress".into(),
                program: "compress".into(),
                technique: "ensemble".into(),
                budget_secs: 600.0,
                seed: Some(7),
                default_secs: 10.0,
                best_secs: 8.0,
                improvement_percent: 25.0,
                spent_secs: 28.0,
                best_delta: vec!["-XX:+UseG1GC".into()],
                convergence: vec![
                    ConvergencePoint {
                        index: 0,
                        spent_secs: 10.0,
                        best_secs: 10.0,
                    },
                    ConvergencePoint {
                        index: 3,
                        spent_secs: 28.0,
                        best_secs: 8.0,
                    },
                ],
                techniques: vec![TechniqueStats {
                    name: "random".into(),
                    proposals: 2,
                    failures: 0,
                    wins: 1,
                    reward_secs: 2.0,
                    best_secs: Some(8.0),
                }],
                counters: SessionCounters {
                    evaluations: 4,
                    cache_hits: 1,
                    ..SessionCounters::default()
                },
                flags: vec![FlagImpact {
                    flag: "UseG1GC".into(),
                    trials: 2,
                    successes: 2,
                    best_secs: Some(8.0),
                    mean_secs: Some(8.5),
                    in_best: 1,
                }],
            }],
            daemon: None,
        }
    }

    fn sample_with_daemon() -> Report {
        let mut r = sample();
        r.daemon = Some(crate::load::DaemonCounters {
            connections_rejected: 3,
            frames_rejected: 2,
            clients_retried: 5,
            workers_reconnected: 1,
            workers_registered: 4,
            trials_leased: 40,
            leases_expired: 2,
        });
        r
    }

    #[test]
    fn markdown_has_all_required_sections() {
        let md = to_markdown(&sample());
        for section in [
            "# jtune report",
            "## Overview",
            "### Convergence",
            "### Techniques",
            "### Counters",
            "### Flag impact",
        ] {
            assert!(md.contains(section), "missing {section}:\n{md}");
        }
        assert!(md.contains("| compress |"));
        assert!(md.contains("UseG1GC"));
        assert!(md.contains("+25.0%"));
    }

    #[test]
    fn html_is_self_contained() {
        let html = to_html(&sample());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<style>"));
        assert!(html.contains("<svg"), "no inline convergence SVG");
        assert!(html.contains("</html>"));
        for forbidden in ["<script", "http://", "https://", "<link", "<img"] {
            assert!(!html.contains(forbidden), "external asset: {forbidden}");
        }
    }

    #[test]
    fn html_escapes_markup_in_labels() {
        let mut r = sample();
        r.sessions[0].label = "a<b&c".into();
        let html = to_html(&r);
        assert!(html.contains("a&lt;b&amp;c"));
        assert!(!html.contains("a<b&c"));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let j = to_json(&sample());
        let v = json::parse(&j).expect("valid JSON");
        assert_eq!(
            v.get("title").and_then(jtune_util::json::JsonValue::as_str),
            Some("e1_specjvm")
        );
        let sessions = v
            .get("sessions")
            .and_then(jtune_util::json::JsonValue::as_array)
            .unwrap();
        assert_eq!(
            sessions[0]
                .get("counters")
                .and_then(|c| c.get("evaluations"))
                .and_then(jtune_util::json::JsonValue::as_u64),
            Some(4)
        );
    }

    #[test]
    fn daemon_counters_render_in_every_format() {
        let r = sample_with_daemon();
        let md = to_markdown(&r);
        assert!(md.contains("## Daemon"), "{md}");
        assert!(md.contains("| connections rejected | 3 |"), "{md}");
        assert!(md.contains("| worker reconnects | 1 |"), "{md}");
        let html = to_html(&r);
        assert!(html.contains("<h2>Daemon</h2>"), "{html}");
        assert!(
            html.contains("<td>frames rejected</td><td>2</td>"),
            "{html}"
        );
        let v = json::parse(&to_json(&r)).expect("valid JSON");
        assert_eq!(
            v.get("daemon")
                .and_then(|d| d.get("clients_retried"))
                .and_then(jtune_util::json::JsonValue::as_u64),
            Some(5)
        );

        // Without a daemon snapshot the section stays out entirely.
        let bare = sample();
        assert!(!to_markdown(&bare).contains("Daemon"));
        assert!(!to_html(&bare).contains("Daemon"));
        let v = json::parse(&to_json(&bare)).expect("valid JSON");
        assert!(v.get("daemon").map(|d| d.is_null()).unwrap_or(false));
    }

    #[test]
    fn renderers_are_deterministic() {
        let r = sample();
        assert_eq!(to_markdown(&r), to_markdown(&r));
        assert_eq!(to_html(&r), to_html(&r));
        assert_eq!(to_json(&r), to_json(&r));
    }
}
