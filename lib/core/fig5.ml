(* Fig 5: noise-adaptive approximate decomposition walkthrough.

   A 3-qubit circuit with two SU(4) gates placed on qubits [2,3,4] of the
   Aspen-8 ring.  Qubit pair (2,3) favours CZ, pair (3,4) favours the XY
   gate; the noise-adaptive pass picks a different hardware gate type per
   edge and trades decomposition accuracy for fewer noisy gates. *)

open Linalg

let doc ?(cfg = Config.default) () =
  let b = Report.Builder.create () in
  Report.Builder.heading b "Fig 5: noise-adaptive approximate decomposition";
  (* The paper's walkthrough numbers: on (2,3) CZ is the high-fidelity
     gate (94%), on (3,4) the XY-family gate is (95%). *)
  let cal =
    Device.Calibration.map_twoq_errors (Device.Aspen8.ring_device ())
      (fun edge name e ->
        match (edge, name) with
        | (2, 3), "CZ" -> 0.06
        | (2, 3), "sqrt_iSWAP" -> 0.10
        | (3, 4), "CZ" -> 0.09
        | (3, 4), "sqrt_iSWAP" -> 0.05
        | _ -> e)
  in
  let isa = Isa.Set.make "CZ+sqrt_iSWAP" Gates.Gate_type.[ s3; s2 ] in
  (* pick an illustrative unitary for which the adaptive choice actually
     differs across the two edges, like the paper's Fig 2a example *)
  let options =
    { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop }
  in
  let choice edge u =
    (Compiler.Pass.decompose_on_edge ~options ~cal ~isa ~edge ~target:u)
      .Decompose.Nuop.gate_type
  in
  let rec find_example rng tries =
    let u = Apps.Qv.random_unitary rng in
    if tries = 0 then u
    else if
      Gates.Gate_type.equal (choice (2, 3) u) Gates.Gate_type.s3
      && Gates.Gate_type.equal (choice (3, 4) u) Gates.Gate_type.s2
    then u
    else find_example rng (tries - 1)
  in
  let u = find_example (Rng.create (cfg.Config.seed + 4)) 40 in
  let options =
    { Compiler.Pipeline.default_options with nuop = cfg.Config.nuop }
  in
  let describe edge =
    let d =
      Compiler.Pass.decompose_on_edge ~options ~cal ~isa ~edge ~target:u
    in
    let qa, qb = edge in
    Report.Builder.textf b "qubits (%d,%d):" qa qb;
    List.iter
      (fun ty ->
        Report.Builder.textf b "  %s fid=%.3f" (Gates.Gate_type.name ty)
          (Device.Calibration.twoq_fidelity cal edge ty))
      (Isa.Set.gate_types isa);
    Report.Builder.textf b
      "\n  -> chose %s, %d applications, Fd=%.4f Fh=%.4f Fu=%.4f\n"
      (Gates.Gate_type.name d.Decompose.Nuop.gate_type)
      d.Decompose.Nuop.layers d.Decompose.Nuop.fd d.Decompose.Nuop.fh
      (Decompose.Nuop.overall_fidelity d);
    d
  in
  let d23 = describe (2, 3) in
  let d34 = describe (3, 4) in
  let exact =
    Decompose.Cache.decompose_exact ~options:cfg.Config.nuop Gates.Gate_type.s3
      ~target:u
  in
  Report.Builder.textf b
    "\nExact decomposition would need %d CZ gates; the approximate pass uses\n\
     %d+%d gates with higher overall fidelity — the Fig 5 effect.\n"
    exact.Decompose.Nuop.layers d23.Decompose.Nuop.layers d34.Decompose.Nuop.layers;
  Report.Builder.doc b
