//! Command-line entry of the megadc benchmark; see the crate docs.

use megadc_perfbench::scenario::Size;
use megadc_perfbench::{parse_args, run};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <steady-20k|flash-3k> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = run(&args, Size::Full);
    for line in &outcome.diagnostics {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    if !outcome.correct {
        std::process::exit(1);
    }
}
