//! Fuzzes the `--faults` grammar with arbitrary byte strings and with
//! valid specs mutated by swapping, dropping or duplicating a token or a
//! character. Every input must give either a typed error or a plan that
//! survives its own rendering: `parse(render(p)) == p`. A panic anywhere
//! in the parser fails the test.

use faultsim::FaultPlan;
use simcore::SimRng;

/// Valid specs: every clause kind and option of the grammar.
const VALID: &[&str] = &[
    "seed=7; steal:cpu=0,period=250ms,duration=20ms,count=10,jitter",
    "seed=7; crash:rank=1,iter=2,policy=restart,delay=50ms",
    "seed=7; mpidelay:prob=0.5,extra=300us; slow:rank=0,at=1s,factor=0.7",
    "seed=7; nodefail:node=1,iter=5,retries=2,restart=1s",
    "crash:rank=2,iter=3,policy=failstop; taskabort:job=3,node=0,aborts=2,hang",
    "ckptcorrupt:at=2; steal:cpu=1,period=100ms,duration=5ms,count=8; seed=42",
    "slow:rank=1,at=2,factor=0.5;nodefail:node=0,iter=1,retries=0;mpidelay:prob=1,extra=1ns",
];

/// Characters the grammar gives meaning to, so random strings reach past
/// the first check.
const ALPHABET: &[u8] = b"0123456789.;:,= -_+esmunratcdlkpfoiyhjgbxNE";

const CASES: usize = 4_000;

/// Parses `input` and, when it is accepted, checks the round trip.
fn accepted(input: &str) -> bool {
    let Ok(plan) = FaultPlan::parse(input) else { return false };
    let text = plan.render();
    assert_eq!(FaultPlan::parse(&text).as_ref(), Ok(&plan), "`{input}` renders as `{text}`");
    true
}

fn pick(rng: &mut SimRng, n: usize) -> usize {
    rng.range_u64(0, n as u64) as usize
}

/// Swaps, drops or duplicates one element of `items`.
fn mutate<T: Clone>(rng: &mut SimRng, items: &mut Vec<T>) {
    if items.is_empty() {
        return;
    }
    let (i, j) = (pick(rng, items.len()), pick(rng, items.len()));
    match pick(rng, 3) {
        0 => items.swap(i, j),
        1 => drop(items.remove(i)),
        _ => items.insert(i, items[i].clone()),
    }
}

#[test]
fn valid_specs_round_trip() {
    for spec in VALID {
        assert!(accepted(spec), "`{spec}`");
    }
}

#[test]
fn arbitrary_bytes_parse_or_fail_typed() {
    let mut rng = SimRng::seed_from_u64(2008);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..pick(&mut rng, 64))
            .map(|_| match rng.chance(0.9) {
                true => ALPHABET[pick(&mut rng, ALPHABET.len())],
                false => rng.range_u64(0, 256) as u8,
            })
            .collect();
        accepted(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn mutated_specs_parse_or_fail_typed() {
    let mut rng = SimRng::seed_from_u64(7);
    let mut hits = 0;
    for _ in 0..CASES {
        let spec = VALID[pick(&mut rng, VALID.len())];
        // Tokens run up to and including a separator (`steal:`, `cpu=`,
        // `0,`), or are single characters.
        let mut toks: Vec<String> = match rng.chance(0.5) {
            true => spec.split_inclusive(|c: char| ";:,= ".contains(c)).map(String::from).collect(),
            false => spec.chars().map(String::from).collect(),
        };
        for _ in 0..1 + pick(&mut rng, 3) {
            mutate(&mut rng, &mut toks);
        }
        hits += usize::from(accepted(&toks.concat()));
    }
    // Both outcomes occur, so the round trip is exercised on real plans.
    assert!(hits > 0 && hits < CASES, "{hits} of {CASES} accepted");
}
