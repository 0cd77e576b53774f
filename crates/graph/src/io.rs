//! DIMACS-format graph I/O.
//!
//! Supports the classic DIMACS maximum-flow format (`p max N M`,
//! `n <id> s|t`, `a <from> <to> <cap>`, 1-indexed), so instances from
//! standard benchmark suites can be fed to the congested clique
//! pipelines.

use std::error::Error;
use std::fmt;

use crate::DiGraph;

/// A parsed DIMACS max-flow instance.
#[derive(Debug, Clone)]
pub struct MaxFlowInstance {
    /// The capacitated digraph (0-indexed).
    pub graph: DiGraph,
    /// Source vertex.
    pub source: usize,
    /// Sink vertex.
    pub sink: usize,
}

/// DIMACS parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DimacsError {
    /// The `p` problem line is missing or malformed.
    MissingProblemLine,
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The instance lacks a source or sink designation.
    MissingTerminals,
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::MissingProblemLine => write!(f, "missing dimacs problem line"),
            DimacsError::Malformed { line, reason } => {
                write!(f, "malformed dimacs line {line}: {reason}")
            }
            DimacsError::MissingTerminals => write!(f, "instance lacks source/sink lines"),
        }
    }
}

impl Error for DimacsError {}

fn parse_fields(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Parses a DIMACS max-flow instance from text.
///
/// # Errors
///
/// [`DimacsError`] on malformed input.
pub fn parse_dimacs_max_flow(text: &str) -> Result<MaxFlowInstance, DimacsError> {
    let mut graph: Option<DiGraph> = None;
    let mut source = None;
    let mut sink = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let fields = parse_fields(line);
        match fields[0] {
            "p" => {
                if fields.len() != 4 || fields[1] != "max" {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `p max N M`".into(),
                    });
                }
                let n: usize = fields[2].parse().map_err(|_| DimacsError::Malformed {
                    line: lineno,
                    reason: "bad vertex count".into(),
                })?;
                graph = Some(DiGraph::new(n));
            }
            "n" => {
                if fields.len() != 3 {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `n <id> s|t`".into(),
                    });
                }
                let id: usize = fields[1].parse().map_err(|_| DimacsError::Malformed {
                    line: lineno,
                    reason: "bad vertex id".into(),
                })?;
                match fields[2] {
                    "s" => source = Some(id - 1),
                    "t" => sink = Some(id - 1),
                    other => {
                        return Err(DimacsError::Malformed {
                            line: lineno,
                            reason: format!("unknown terminal kind {other}"),
                        })
                    }
                }
            }
            "a" => {
                let g = graph.as_mut().ok_or(DimacsError::MissingProblemLine)?;
                if fields.len() != 4 {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `a <from> <to> <cap>`".into(),
                    });
                }
                let parse = |s: &str| -> Result<i64, DimacsError> {
                    s.parse().map_err(|_| DimacsError::Malformed {
                        line: lineno,
                        reason: "bad number".into(),
                    })
                };
                let (u, v, cap) = (parse(fields[1])?, parse(fields[2])?, parse(fields[3])?);
                if u < 1 || v < 1 || u as usize > g.n() || v as usize > g.n() {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "vertex id out of range".into(),
                    });
                }
                g.add_edge(u as usize - 1, v as usize - 1, cap, 0);
            }
            other => {
                return Err(DimacsError::Malformed {
                    line: lineno,
                    reason: format!("unknown line kind {other}"),
                })
            }
        }
    }
    let graph = graph.ok_or(DimacsError::MissingProblemLine)?;
    match (source, sink) {
        (Some(s), Some(t)) => Ok(MaxFlowInstance {
            graph,
            source: s,
            sink: t,
        }),
        _ => Err(DimacsError::MissingTerminals),
    }
}

/// Renders a max-flow instance in DIMACS format.
pub fn write_dimacs_max_flow(instance: &MaxFlowInstance) -> String {
    let g = &instance.graph;
    let mut out = String::new();
    out.push_str(&format!("p max {} {}\n", g.n(), g.m()));
    out.push_str(&format!("n {} s\n", instance.source + 1));
    out.push_str(&format!("n {} t\n", instance.sink + 1));
    for e in g.edges() {
        out.push_str(&format!("a {} {} {}\n", e.from + 1, e.to + 1, e.capacity));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn max_flow_roundtrip() {
        let g = generators::random_flow_network(8, 12, 5, 3);
        let instance = MaxFlowInstance {
            graph: g,
            source: 0,
            sink: 7,
        };
        let text = write_dimacs_max_flow(&instance);
        let parsed = parse_dimacs_max_flow(&text).unwrap();
        assert_eq!(parsed.source, 0);
        assert_eq!(parsed.sink, 7);
        assert_eq!(parsed.graph.n(), instance.graph.n());
        assert_eq!(parsed.graph.edges(), instance.graph.edges());
    }

    #[test]
    fn parses_classic_example_with_comments() {
        let text = "c a tiny instance\np max 4 3\nn 1 s\nn 4 t\n\na 1 2 5\na 2 3 3\na 3 4 5\n";
        let inst = parse_dimacs_max_flow(text).unwrap();
        assert_eq!(inst.graph.n(), 4);
        assert_eq!(inst.graph.m(), 3);
        assert_eq!(inst.graph.edge(1).capacity, 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            parse_dimacs_max_flow("a 1 2 3\n").unwrap_err(),
            DimacsError::MissingProblemLine
        );
        assert!(matches!(
            parse_dimacs_max_flow("p max 2 1\na 1 2\n").unwrap_err(),
            DimacsError::Malformed { line: 2, .. }
        ));
        assert_eq!(
            parse_dimacs_max_flow("p max 2 1\na 1 2 4\n").unwrap_err(),
            DimacsError::MissingTerminals
        );
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        assert!(matches!(
            parse_dimacs_max_flow("p max 2 1\nn 1 s\nn 2 t\na 1 9 4\n").unwrap_err(),
            DimacsError::Malformed { line: 4, .. }
        ));
    }
}
