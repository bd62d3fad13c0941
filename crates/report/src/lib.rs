//! # jtune-report
//!
//! Post-hoc session analytics: replay the JSONL traces a tuning session
//! left on disk — one trace file, a server session's state directory, a
//! whole server state directory, or an experiment's trace directory —
//! into a structured [`SessionSummary`] and render it as Markdown,
//! self-contained HTML, or JSON.
//!
//! Three layers:
//!
//! - [`summary`] — the model: convergence curve, per-technique
//!   proposal/win/reward statistics, pipeline counters, and a per-flag
//!   impact table, derived by a streaming replay of the trace events.
//! - [`mod@load`] — input discovery: a path becomes an ordered [`Report`]
//!   (directory entries sorted by name, server sessions by ID).
//! - [`mod@render`] — deterministic renderers. Same input bytes, same
//!   report bytes: floats print at fixed precision and every grouping
//!   is order-stable, so CI can `cmp` two runs of `jtune report`.
//!
//! The crate is read-only and offline: it never re-runs a session,
//! needs no network, and embeds no external assets (the HTML chart is
//! inline SVG).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod load;
pub mod render;
pub mod summary;

pub use load::{load, DaemonCounters, Report};
pub use render::{to_html, to_json, to_markdown};
pub use summary::{
    flag_name, ConvergencePoint, FlagImpact, SessionCounters, SessionSummary, TechniqueStats,
};

/// Output format for [`render()`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// GitHub-flavoured Markdown.
    Markdown,
    /// Self-contained HTML (inline CSS + SVG).
    Html,
    /// One JSON object.
    Json,
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "md" | "markdown" => Ok(Format::Markdown),
            "html" => Ok(Format::Html),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format {other:?} (expected md|html|json)")),
        }
    }
}

/// Render `report` in the requested format.
pub fn render(report: &Report, format: Format) -> String {
    match format {
        Format::Markdown => to_markdown(report),
        Format::Html => to_html(report),
        Format::Json => to_json(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_parse_and_reject() {
        assert_eq!("md".parse::<Format>(), Ok(Format::Markdown));
        assert_eq!("markdown".parse::<Format>(), Ok(Format::Markdown));
        assert_eq!("html".parse::<Format>(), Ok(Format::Html));
        assert_eq!("json".parse::<Format>(), Ok(Format::Json));
        assert!("pdf".parse::<Format>().is_err());
    }
}
