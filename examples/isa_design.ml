(* Design your own instruction set and weigh it against the paper's
   recommendation.

     dune exec examples/isa_design.exe

   Takes a custom gate set, measures (1) its expressivity on the four
   application classes via the shared scorer (Isa.Score) and (2) its
   calibration cost on a 54-qubit grid (Isa.Cost), then compares with
   the single-gate baseline and the paper's G7.

   For the automated version — searching a candidate pool for the whole
   expressivity/calibration Pareto frontier — see
   `nuop experiment design`. *)

open Linalg

let () =
  let rng = Rng.create 11 in
  let samples =
    Isa.Score.samples
      ~counts:
        Apps.Su4_unitaries.[ (Qv, 6); (Qaoa, 6); (Qft, 4); (Fh, 4); (Swap, 1) ]
      rng
  in
  (* a custom three-type set: CZ + sqrt(iSWAP) + SWAP *)
  let custom = Isa.Set.make "Custom" Gates.Gate_type.[ s3; s2; swap_type ] in
  Printf.printf "%-8s %-7s %-12s %-12s %-20s\n" "ISA" "types" "mean gates"
    "mean F_u" "calibration circuits (54q)";
  List.iter
    (fun isa ->
      let score = Isa.Score.score ~samples isa in
      let cost = Isa.Cost.grid ~n_qubits:54 isa in
      Printf.printf "%-8s %-7d %-12.2f %-12.4f %.2e\n" (Isa.Set.name isa)
        (Isa.Set.size isa) score.Isa.Score.mean_layers score.Isa.Score.mean_fidelity
        (float_of_int cost.Isa.Cost.circuits))
    [ Isa.Set.s3; Isa.Set.s1; custom; Isa.Set.g7 ];
  Printf.printf
    "\nThe continuous fSim family would need ~%d calibrated types — %.0fx the\n\
     calibration of the custom 3-type set for a fraction of a gate saved per\n\
     unitary.  That is the paper's expressivity/calibration sweet spot.\n"
    Isa.Cost.continuous_family_types
    (Isa.Cost.continuous_overhead_factor ~n_types:3)
