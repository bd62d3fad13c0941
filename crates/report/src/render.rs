//! Deterministic renderers: Markdown, self-contained HTML, and JSON.
//!
//! Markdown and HTML are one walk over the report through a two-syntax
//! block writer, so both show the same headings, paragraphs and tables;
//! HTML adds an inline SVG chart above each convergence table.
//!
//! All three are pure functions of the [`Report`] value. Floats are
//! printed with fixed precision (`{:.3}` seconds, `{:.1}` percent,
//! `{:.2}` SVG coordinates), so a given input directory always renders
//! to the same bytes — the property the CI report-smoke job `cmp`s.

use std::fmt::Write as _;

use jtune_util::json::{self, JsonObject};

use crate::load::{Report, DAEMON_COUNTERS};
use crate::summary::{SessionCounters, SessionSummary, TechniqueStats};

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

/// The markup a [`page`] is written in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Syntax {
    Markdown,
    Html,
}

/// A run of paragraph text: plain, or inline code.
enum Span<'a> {
    Text(&'a str),
    Code(&'a str),
}

/// Append `s` with the characters HTML gives meaning to escaped.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c => out.push(c),
        }
    }
}

/// Block writer for one [`Syntax`]. Markdown separates blocks with one
/// blank line and writes pipe tables; HTML escapes all text and writes
/// `<table>` rows.
struct Writer {
    syntax: Syntax,
    out: String,
}

impl Writer {
    /// Append the markup of the writer's syntax: `md` or `html`.
    fn markup(&mut self, md: &str, html: &str) {
        self.out.push_str(match self.syntax {
            Syntax::Markdown => md,
            Syntax::Html => html,
        });
    }

    /// Start a block with its opening markup.
    fn open(&mut self, md: &str, html: &str) {
        if self.syntax == Syntax::Markdown && !self.out.is_empty() {
            self.out.push('\n');
        }
        self.markup(md, html);
    }

    fn text(&mut self, s: &str) {
        match self.syntax {
            Syntax::Markdown => self.out.push_str(s),
            Syntax::Html => escape_into(&mut self.out, s),
        }
    }

    fn heading(&mut self, level: usize, title: &str) {
        self.open(&format!("{} ", "#".repeat(level)), &format!("<h{level}>"));
        self.text(title);
        self.markup("\n", &format!("</h{level}>\n"));
    }

    fn paragraph(&mut self, spans: &[Span]) {
        self.open("", "<p>");
        for span in spans {
            match span {
                Span::Text(s) => self.text(s),
                Span::Code(s) => {
                    self.markup("`", "<code>");
                    self.text(s);
                    self.markup("`", "</code>");
                }
            }
        }
        self.markup("\n", "</p>\n");
    }

    fn table<const N: usize>(
        &mut self,
        header: [&str; N],
        rows: impl Iterator<Item = [String; N]>,
    ) {
        self.open("", "<table>");
        self.row(&header, ["<th>", "</th>"]);
        self.markup(&format!("{}|\n", "|---".repeat(N)), "");
        for row in rows {
            self.row(&row, ["<td>", "</td>"]);
        }
        self.markup("", "</table>\n");
    }

    /// One table row; `tags` opens and closes each HTML cell.
    fn row(&mut self, cells: &[impl AsRef<str>], [open, close]: [&str; 2]) {
        self.markup("|", "<tr>");
        for cell in cells {
            self.markup(" ", open);
            self.text(cell.as_ref());
            self.markup(" |", close);
        }
        self.markup("\n", "</tr>\n");
    }
}

/// A session's whole-number counters as `(JSON key, label, value)`, in
/// display order.
fn session_counters(c: &SessionCounters) -> [(&'static str, &'static str, u64); 10] {
    [
        ("evaluations", "evaluations", c.evaluations),
        ("failures", "failures", c.failures),
        ("cache_hits", "cache hits", c.cache_hits),
        ("suppressed", "duplicates suppressed", c.suppressed),
        ("aborted", "racing aborts", c.aborted),
        ("retried", "retries", c.retried),
        ("quarantined", "quarantined", c.quarantined),
        ("screened", "screened", c.screened),
        ("model_fits", "model fits", c.model_fits),
        ("checkpoints", "checkpoints", c.checkpoints),
    ]
}

/// Header of the daemon and per-session counter tables.
const COUNTER_HEADER: [&str; 2] = ["counter", "value"];

/// The report as one page in `syntax`: the whole of [`to_markdown`] and
/// the body of [`to_html`].
fn page(report: &Report, syntax: Syntax) -> String {
    let mut w = Writer {
        syntax,
        out: String::new(),
    };
    w.heading(1, "jtune report");
    let count = format!(" — {} session(s)", report.sessions.len());
    w.paragraph(&[
        Span::Text("Input: "),
        Span::Code(&report.title),
        Span::Text(&count),
    ]);
    w.heading(2, "Overview");
    w.table(
        [
            "session",
            "program",
            "technique",
            "default (s)",
            "best (s)",
            "improvement",
            "evals",
            "spent (s)",
        ],
        report.sessions.iter().map(|s| {
            [
                s.label.clone(),
                s.program.clone(),
                if s.technique.is_empty() {
                    "—"
                } else {
                    &s.technique
                }
                .to_string(),
                secs(s.default_secs),
                secs(s.best_secs),
                pct(s.improvement_percent),
                s.counters.evaluations.to_string(),
                secs(s.spent_secs),
            ]
        }),
    );
    if let Some(d) = &report.daemon {
        w.heading(2, "Daemon");
        let rows = DAEMON_COUNTERS.iter().zip(d.0);
        w.table(
            COUNTER_HEADER,
            rows.map(|((_, label), v)| [label.to_string(), v.to_string()]),
        );
    }
    for s in &report.sessions {
        w.heading(2, &s.label);
        let budget = secs(s.budget_secs);
        let intro = format!(", seed {}, budget {budget} s; best delta: ", s.seed);
        let delta = s.best_delta.join(" ");
        w.paragraph(&[
            Span::Text("Program "),
            Span::Code(&s.program),
            Span::Text(&intro),
            if delta.is_empty() {
                Span::Text("(default configuration)")
            } else {
                Span::Code(&delta)
            },
        ]);
        w.heading(3, "Convergence");
        if syntax == Syntax::Html && s.convergence.len() > 1 {
            w.out.push_str(&convergence_svg(s));
            w.out.push('\n');
        }
        w.table(
            ["eval", "spent (s)", "best (s)"],
            s.convergence
                .iter()
                .map(|p| [p.index.to_string(), secs(p.spent_secs), secs(p.best_secs)]),
        );
        w.heading(3, "Techniques");
        w.table(
            [
                "technique",
                "proposals",
                "failures",
                "wins",
                "reward (s)",
                "best (s)",
            ],
            s.techniques.iter().map(|t| {
                [
                    t.name.clone(),
                    t.proposals.to_string(),
                    t.failures.to_string(),
                    t.wins.to_string(),
                    secs(t.reward_secs),
                    opt_secs(t.best_secs),
                ]
            }),
        );
        w.heading(3, "Counters");
        let c = &s.counters;
        let counts = session_counters(c).map(|(_, label, v)| [label.to_string(), v.to_string()]);
        let saved = ["budget saved (s)".to_string(), secs(c.saved_secs)];
        w.table(COUNTER_HEADER, counts.into_iter().chain([saved]));
        w.heading(3, "Flag impact");
        let rows = flag_rows(s);
        if rows.is_empty() {
            w.paragraph(&[
                Span::Text("No "),
                Span::Code("-XX:"),
                Span::Text(" flags appeared in any trial delta."),
            ]);
            continue;
        }
        w.table(
            ["flag", "trials", "ok", "best (s)", "mean (s)", "in best"],
            rows.iter().take(FLAG_ROWS).map(|f| {
                [
                    f.flag.clone(),
                    f.trials.to_string(),
                    f.successes.to_string(),
                    opt_secs(f.best_secs),
                    opt_secs(f.mean_secs),
                    if f.in_best > 0 { "yes" } else { "" }.to_string(),
                ]
            }),
        );
        if rows.len() > FLAG_ROWS {
            let omitted = format!("({} more flags omitted; use ", rows.len() - FLAG_ROWS);
            w.paragraph(&[
                Span::Text(&omitted),
                Span::Code("--format json"),
                Span::Text(" for the full table)"),
            ]);
        }
    }
    w.out
}

/// Render the report as Markdown.
pub fn to_markdown(report: &Report) -> String {
    page(report, Syntax::Markdown)
}

/// Inline SVG of a session's convergence curve (step-after polyline);
/// the session must have at least two points.
fn convergence_svg(s: &SessionSummary) -> String {
    const W: f64 = 640.0;
    const H: f64 = 180.0;
    const PAD: f64 = 8.0;
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
/// inline SVG, no external assets. The body holds the Markdown
/// report's tables plus each session's convergence chart.
pub fn to_html(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>jtune report — ");
    escape_into(&mut out, &report.title);
    out.push_str("</title>\n");
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
    out.push_str(&page(report, Syntax::Html));
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
    let counters = session_counters(&s.counters)
        .iter()
        .fold(JsonObject::new(), |o, (key, _, v)| o.u64(key, *v))
        .f64("saved_secs", s.counters.saved_secs)
        .finish();
    JsonObject::new()
        .str("label", &s.label)
        .str("program", &s.program)
        .str("technique", &s.technique)
        .f64("budget_secs", s.budget_secs)
        .u64("seed", s.seed)
        .f64("default_secs", s.default_secs)
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
            DAEMON_COUNTERS
                .iter()
                .zip(d.0)
                .fold(JsonObject::new(), |o, ((key, _), v)| o.u64(key, v))
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
    use crate::summary::{ConvergencePoint, FlagImpact};

    fn sample() -> Report {
        Report {
            title: "e1_specjvm".into(),
            sessions: vec![SessionSummary {
                label: "compress".into(),
                program: "compress".into(),
                technique: "ensemble".into(),
                budget_secs: 600.0,
                seed: 7,
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

    /// [`sample`] with daemon counters and 21 flags, so every block of
    /// the page renders, the omitted-flags note included.
    fn full_sample() -> Report {
        let mut r = sample();
        r.daemon = Some(crate::load::DaemonCounters([3, 2, 5, 1, 4, 40, 2]));
        r.sessions[0].flags.extend((1..=20u64).map(|i| FlagImpact {
            flag: format!("Flag{i:02}"),
            trials: i % 4,
            successes: i % 4 / 2,
            best_secs: (i % 5 > 0).then(|| 8.0 + i as f64 / 8.0),
            mean_secs: (i % 5 > 0).then(|| 9.0 + i as f64 / 3.0),
            in_best: i % 2,
        }));
        r
    }

    #[test]
    fn markdown_matches_golden_bytes() {
        // Written by the Markdown renderer that preceded the shared walk.
        let golden = include_str!("../testdata/full_sample.md");
        assert_eq!(to_markdown(&full_sample()), golden);
    }

    #[test]
    fn html_shows_every_markdown_table_row_in_order() {
        let r = full_sample();
        let html = to_html(&r);
        let md = to_markdown(&r);
        let lines: Vec<&str> = md.lines().collect();
        let (mut at, mut rows) = (0, 0);
        for (i, line) in lines.iter().enumerate() {
            if !line.starts_with("| ") {
                continue;
            }
            let header = lines.get(i + 1).is_some_and(|l| l.starts_with("|---"));
            let tag = if header { "th" } else { "td" };
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let mut tr = String::from("<tr>");
            for cell in &cells[1..cells.len() - 1] {
                let _ = write!(tr, "<{tag}>");
                escape_into(&mut tr, cell);
                let _ = write!(tr, "</{tag}>");
            }
            tr.push_str("</tr>");
            let found = html[at..]
                .find(&tr)
                .unwrap_or_else(|| panic!("missing or out of order: {tr}\n{html}"));
            at += found + tr.len();
            rows += 1;
        }
        // Six tables: their header rows plus 1 + 7 + 2 + 1 + 11 + 20 rows.
        assert_eq!(rows, 6 + 42);
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
        let r = full_sample();
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
