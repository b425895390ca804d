//! `qpiad` — run QPIAD over your own CSV from the command line.
//!
//! ```text
//! qpiad --csv cars.csv body_style=Convt
//! qpiad --csv cars.csv --k 15 --alpha 1.0 "price=12000..18000" body_style=Sedan
//! qpiad --csv cars.csv --afds            # just print the mined AFDs
//! ```
//!
//! The CSV's first row is the header; empty fields and `null` are missing
//! values. The file plays the role of the incomplete autonomous database: a
//! statistics sample is drawn from it, the query returns certain answers
//! first and then ranked relevant possible answers with confidences and
//! AFD explanations.

use std::process::ExitCode;
use std::sync::Arc;

use qpiad::core::mediator::{explain, Qpiad, QpiadConfig};
use qpiad::data::io::{relation_from_csv, CsvOptions};
use qpiad::data::sample::uniform_sample;
use qpiad::db::{AttrType, Predicate, Schema, SelectQuery, Value, WebSource};
use qpiad::learn::knowledge::{MiningConfig, SourceStats};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    csv_path: String,
    null_token: String,
    sample_fraction: f64,
    k: usize,
    alpha: f64,
    threshold: f64,
    limit: usize,
    seed: u64,
    afds_only: bool,
    predicates: Vec<String>,
}

const USAGE: &str = "\
usage: qpiad --csv <file> [options] <predicate>...

predicates:  attr=value           equality
             attr=lo..hi          inclusive integer range
options:     --null-token <s>     extra missing-value token (default: null)
             --sample <frac>      statistics sample fraction (default: 0.1)
             --k <n>              rewritten-query budget (default: 10)
             --alpha <a>          F-measure alpha (default: 0)
             --threshold <t>      confidence threshold (default: 0)
             --limit <n>          answers to print (default: 20)
             --seed <n>           sampling seed (default: 7)
             --afds               print mined AFDs and exit";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        csv_path: String::new(),
        null_token: "null".into(),
        sample_fraction: 0.10,
        k: 10,
        alpha: 0.0,
        threshold: 0.0,
        limit: 20,
        seed: 7,
        afds_only: false,
        predicates: Vec::new(),
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--csv" => args.csv_path = value_of("--csv")?,
            "--null-token" => args.null_token = value_of("--null-token")?,
            "--sample" => {
                args.sample_fraction = value_of("--sample")?
                    .parse()
                    .map_err(|_| "--sample expects a fraction".to_string())?
            }
            "--k" => {
                args.k = value_of("--k")?
                    .parse()
                    .map_err(|_| "--k expects an integer".to_string())?
            }
            "--alpha" => {
                args.alpha = value_of("--alpha")?
                    .parse()
                    .map_err(|_| "--alpha expects a number".to_string())?
            }
            "--threshold" => {
                args.threshold = value_of("--threshold")?
                    .parse()
                    .map_err(|_| "--threshold expects a number".to_string())?
            }
            "--limit" => {
                args.limit = value_of("--limit")?
                    .parse()
                    .map_err(|_| "--limit expects an integer".to_string())?
            }
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--afds" => args.afds_only = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}\n{USAGE}"))
            }
            predicate => args.predicates.push(predicate.to_string()),
        }
    }
    if args.csv_path.is_empty() {
        return Err(format!("--csv is required\n{USAGE}"));
    }
    if !args.afds_only && args.predicates.is_empty() {
        return Err(format!("at least one predicate is required\n{USAGE}"));
    }
    Ok(args)
}

/// Parses `attr=value` / `attr=lo..hi` against a schema.
fn parse_predicate(schema: &Arc<Schema>, text: &str) -> Result<Predicate, String> {
    let (name, rhs) = text
        .split_once('=')
        .ok_or_else(|| format!("`{text}` is not of the form attr=value"))?;
    let attr = schema.attr_id(name.trim()).ok_or_else(|| {
        let known: Vec<&str> = schema.attributes().iter().map(|a| a.name()).collect();
        format!(
            "unknown attribute `{}` (have: {})",
            name.trim(),
            known.join(", ")
        )
    })?;
    let rhs = rhs.trim();
    if let Some((lo, hi)) = rhs.split_once("..") {
        let lo: i64 = lo
            .trim()
            .parse()
            .map_err(|_| format!("range bound `{lo}` is not an integer"))?;
        let hi: i64 = hi
            .trim()
            .parse()
            .map_err(|_| format!("range bound `{hi}` is not an integer"))?;
        return Ok(Predicate::between(attr, lo, hi));
    }
    let value =
        match schema.attr(attr).ty() {
            AttrType::Integer => Value::int(rhs.parse().map_err(|_| {
                format!("`{rhs}` is not an integer (attribute `{name}` is numeric)")
            })?),
            AttrType::Categorical => Value::str(rhs),
        };
    Ok(Predicate::eq(attr, value))
}

fn run(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(&args.csv_path)
        .map_err(|e| format!("cannot read {}: {e}", args.csv_path))?;
    let relation = relation_from_csv(
        &text,
        &CsvOptions {
            relation_name: args.csv_path.clone(),
            null_token: args.null_token.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    let stats_sample = uniform_sample(&relation, args.sample_fraction, args.seed);
    let incompleteness = relation.incompleteness();
    eprintln!(
        "loaded {} tuples ({} attributes, {:.1}% incomplete); mining from a {}-tuple sample",
        relation.len(),
        relation.schema().arity(),
        incompleteness.incomplete_fraction * 100.0,
        stats_sample.len(),
    );
    let stats = SourceStats::mine(&stats_sample, relation.len(), &MiningConfig::default());
    let schema = stats.schema().clone();

    if args.afds_only {
        println!("mined AFDs (best per attribute):");
        for attr in schema.attr_ids() {
            if let Some(afd) = stats.afds().best(attr) {
                println!("  {}", afd.display(&schema));
            }
        }
        return Ok(());
    }

    let predicates = args
        .predicates
        .iter()
        .map(|p| parse_predicate(&schema, p))
        .collect::<Result<Vec<_>, _>>()?;
    let query = SelectQuery::new(predicates);

    let source = WebSource::new("csv", relation);
    let qpiad = Qpiad::new(
        stats,
        QpiadConfig::default()
            .with_k(args.k)
            .with_alpha(args.alpha)
            .with_confidence_threshold(args.threshold),
    );
    let answers = qpiad.answer(&source, &query).map_err(|e| e.to_string())?;

    println!(
        "{} -> {} certain answers, {} ranked possible answers ({} rewritten queries)",
        query.display(&schema),
        answers.certain.len(),
        answers.possible.len(),
        answers.issued.len()
    );
    for t in answers.certain.iter().take(args.limit) {
        println!("  certain   {}", t.display(&schema));
    }
    if answers.certain.len() > args.limit {
        println!(
            "  ... {} more certain answers",
            answers.certain.len() - args.limit
        );
    }
    for a in answers.possible.iter().take(args.limit) {
        println!(
            "  possible  {}  [{}]",
            a.tuple.display(&schema),
            explain(a, &schema)
        );
    }
    if answers.possible.len() > args.limit {
        println!(
            "  ... {} more possible answers",
            answers.possible.len() - args.limit
        );
    }
    if !answers.deferred.is_empty() {
        println!(
            "  ({} tuples with several missing constrained values deferred)",
            answers.deferred.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::of(
            "t",
            &[
                ("model", AttrType::Categorical),
                ("price", AttrType::Integer),
            ],
        )
    }

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags_and_predicates() {
        let a = args(&[
            "--csv",
            "cars.csv",
            "--k",
            "5",
            "--alpha",
            "0.5",
            "model=Civic",
        ])
        .unwrap();
        assert_eq!(a.csv_path, "cars.csv");
        assert_eq!(a.k, 5);
        assert_eq!(a.alpha, 0.5);
        assert_eq!(a.predicates, vec!["model=Civic"]);
    }

    #[test]
    fn requires_csv_and_predicates() {
        assert!(args(&["model=Civic"]).unwrap_err().contains("--csv"));
        assert!(args(&["--csv", "x.csv"]).unwrap_err().contains("predicate"));
        // --afds waives the predicate requirement.
        assert!(args(&["--csv", "x.csv", "--afds"]).is_ok());
    }

    #[test]
    fn rejects_unknown_options() {
        assert!(args(&["--csv", "x", "--bogus", "y"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn predicate_parsing_typed() {
        let s = schema();
        let p = parse_predicate(&s, "model=Civic").unwrap();
        assert_eq!(p, Predicate::eq(s.expect_attr("model"), "Civic"));
        let p = parse_predicate(&s, "price=9000").unwrap();
        assert_eq!(p, Predicate::eq(s.expect_attr("price"), 9000i64));
        let p = parse_predicate(&s, "price=8000..12000").unwrap();
        assert_eq!(
            p,
            Predicate::between(s.expect_attr("price"), 8000i64, 12000i64)
        );
    }

    #[test]
    fn predicate_errors_are_helpful() {
        let s = schema();
        assert!(parse_predicate(&s, "nope=1")
            .unwrap_err()
            .contains("unknown attribute"));
        assert!(parse_predicate(&s, "model")
            .unwrap_err()
            .contains("attr=value"));
        assert!(parse_predicate(&s, "price=cheap")
            .unwrap_err()
            .contains("not an integer"));
        assert!(parse_predicate(&s, "price=1..x")
            .unwrap_err()
            .contains("not an integer"));
    }

    #[test]
    fn end_to_end_on_a_generated_csv() {
        use qpiad::data::cars::CarsConfig;
        use qpiad::data::corrupt::{corrupt, CorruptionConfig};
        use qpiad::data::io::relation_to_csv;
        let ground = CarsConfig::default().with_rows(3_000).generate(3);
        let (ed, _) = corrupt(&ground, &CorruptionConfig::default());
        let dir = std::env::temp_dir().join("qpiad-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cars.csv");
        std::fs::write(&path, relation_to_csv(&ed)).unwrap();

        let a = args(&["--csv", path.to_str().unwrap(), "body_style=Convt"]).unwrap();
        run(&a).expect("CLI run succeeds");
        let a = args(&["--csv", path.to_str().unwrap(), "--afds"]).unwrap();
        run(&a).expect("AFD listing succeeds");
    }
}
