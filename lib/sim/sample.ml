(* Measurement sampling from probability vectors, as in the paper's
   10000-shot experiments.  The experiment drivers and commands use exact
   probabilities; this is a library helper that only the tests call. *)

open Linalg

let sample_one rng probs =
  let r = Rng.float rng in
  let n = Array.length probs in
  let rec walk acc k =
    if k >= n - 1 then n - 1
    else begin
      let acc = acc +. probs.(k) in
      if r < acc then k else walk acc (k + 1)
    end
  in
  walk 0.0 0

let counts ~rng ~shots probs =
  assert (shots > 0);
  let tally = Hashtbl.create 64 in
  for _ = 1 to shots do
    let x = sample_one rng probs in
    let cur = Option.value ~default:0 (Hashtbl.find_opt tally x) in
    Hashtbl.replace tally x (cur + 1)
  done;
  tally

let empirical_probabilities ~rng ~shots probs =
  let tally = counts ~rng ~shots probs in
  let out = Array.make (Array.length probs) 0.0 in
  Hashtbl.iter (fun x c -> out.(x) <- float_of_int c /. float_of_int shots) tally;
  out
