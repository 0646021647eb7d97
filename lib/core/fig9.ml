(* Fig 9: Rigetti Aspen-8 study — application reliability across
   single-type sets (S2-S6), multi-type sets (R1-R5) and the continuous
   Full_XY family, with noise variation across gate types. *)

open Linalg

let isas =
  Isa.Set.(rigetti_singles @ rigetti_multis @ [ full_xy ])

let run_benchmark b cfg device ~label ~slug ~metric circuits =
  Report.Builder.subheading b label;
  let options = { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop } in
  let results =
    List.map
      (fun isa -> Study.evaluate_suite ~options ~device ~isa ~metric circuits)
      isas
  in
  Study.add_results b ~metric results;
  let best = List.fold_left (fun acc r -> Float.max acc r.Study.mean_metric) neg_infinity results in
  Report.Builder.metric b (slug ^ "_best") best;
  results

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 9: Aspen-8 — reliability across instruction sets";
  let rng = Rng.create (cfg.Config.seed + 9) in
  let device = Device.aspen8 () in
  let qv = Apps.Qv.circuits rng ~count:cfg.Config.qv_count 3 in
  let _ =
    run_benchmark b cfg device
      ~label:(Printf.sprintf "(a) %d 3-qubit QV circuits — HOP (threshold 2/3)"
                (List.length qv))
      ~slug:"qv_hop" ~metric:Study.Hop qv
  in
  let qaoa = Apps.Qaoa.circuits rng ~count:cfg.Config.qaoa_count 4 in
  let _ =
    run_benchmark b cfg device
      ~label:(Printf.sprintf "(b) %d 4-qubit QAOA circuits — cross-entropy difference"
                (List.length qaoa))
      ~slug:"qaoa_xed" ~metric:Study.Xed qaoa
  in
  let qft = List.init cfg.Config.qft_inputs (Apps.Qft.with_input 3) in
  let _ =
    run_benchmark b cfg device
      ~label:
        (Printf.sprintf "(c) 3-qubit QFT (%d basis inputs) — success rate"
           (List.length qft))
      ~slug:"qft_success" ~metric:Study.State_fidelity qft
  in
  Report.Builder.textf b
    "\nPaper shape check: R-sets beat the single-type sets; R5 (with native SWAP)\n\
     approaches Full_XY; on QV only multi-type sets cross the 2/3 threshold.\n";
  Report.Builder.doc b
