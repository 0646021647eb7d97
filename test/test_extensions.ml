(* Tests for the extensions beyond the paper's core scope: OpenQASM
   export/import, the CZ(phi) continuous family, calibration drift,
   readout mitigation and edge coloring. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- QASM ---------- *)

let sample_circuit () =
  let c = Qcir.Circuit.empty 3 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.u3 0.3 (-1.2) 2.0) [| 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.cz [| 0; 1 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.fsim 0.6 1.1) [| 1; 2 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.xy 0.9) [| 0; 2 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.cphase 0.4) [| 0; 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.swap [| 1; 2 |] in
  c

let test_qasm_roundtrip () =
  let c = sample_circuit () in
  let parsed = Qcir.Qasm.of_string (Qcir.Qasm.to_string c) in
  check_int "qubits" 3 (Qcir.Circuit.n_qubits parsed);
  (* semantic equality: same state vector on |000> up to phase *)
  let a = Sim.State.run_circuit c and b = Sim.State.run_circuit parsed in
  Alcotest.(check (float 1e-8)) "state fidelity" 1.0 (Sim.State.fidelity_pure a b)

let test_qasm_zz_roundtrip () =
  let c = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2) (Gates.Gate.zz 0.7) [| 0; 1 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let parsed = Qcir.Qasm.of_string (Qcir.Qasm.to_string c) in
  let a = Sim.State.run_circuit c and b = Sim.State.run_circuit parsed in
  Alcotest.(check (float 1e-8)) "state fidelity" 1.0 (Sim.State.fidelity_pure a b)

(* The prelude's xxyy definition must equal the matrix definition:
   expand gate-by-gate in our own simulator. *)
let test_qasm_prelude_xxyy_identity () =
  let t = 0.81 in
  let cnot_ba = Gates.Gate.make "CNOT" Gates.Twoq.cnot in
  let rzz circuit a b =
    let circuit = Qcir.Circuit.add_gate circuit cnot_ba [| a; b |] in
    let circuit = Qcir.Circuit.add_gate circuit (Gates.Gate.rz t) [| b |] in
    Qcir.Circuit.add_gate circuit cnot_ba [| a; b |]
  in
  let c = Qcir.Circuit.empty 2 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 1 |] in
  let c = rzz c 0 1 in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 0 |] in
  let c = Qcir.Circuit.add_gate c Gates.Gate.h [| 1 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rx (Float.pi /. 2.0)) [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rx (Float.pi /. 2.0)) [| 1 |] in
  let c = rzz c 0 1 in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rx (-.Float.pi /. 2.0)) [| 0 |] in
  let c = Qcir.Circuit.add_gate c (Gates.Gate.rx (-.Float.pi /. 2.0)) [| 1 |] in
  (* compare against the closed-form hopping matrix on random inputs *)
  let reference = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2) (Gates.Gate.hopping t) [| 0; 1 |] in
  let rng = Rng.create 3 in
  for _ = 1 to 3 do
    let prep =
      Qcir.Circuit.add_gate
        (Qcir.Circuit.add_gate (Qcir.Circuit.empty 2)
           (Gates.Gate.u3 (Rng.uniform rng 0.0 3.0) 0.4 0.9)
           [| 0 |])
        (Gates.Gate.u3 (Rng.uniform rng 0.0 3.0) (-0.3) 0.2)
        [| 1 |]
    in
    let a = Sim.State.run_circuit (Qcir.Circuit.append prep c) in
    let b = Sim.State.run_circuit (Qcir.Circuit.append prep reference) in
    Alcotest.(check (float 1e-8)) "prelude identity" 1.0 (Sim.State.fidelity_pure a b)
  done

let test_qasm_unsupported () =
  let weird = Qcir.Circuit.add_gate (Qcir.Circuit.empty 2)
      (Gates.Gate.make "mystery" (Qr.haar_unitary (Rng.create 1) 4))
      [| 0; 1 |]
  in
  check_bool "raises" true
    (try
       ignore (Qcir.Qasm.to_string weird);
       false
     with Qcir.Qasm.Unsupported_gate "mystery" -> true)

(* Every (set, device) pair of Figs 9 and 10 compiles a 3-qubit QV
   circuit whose QASM re-imports gate for gate.  The fixed fSim points
   (S5-S7) and XY(pi) carry no params: they are written as
   fsim(theta,phi) read off their matrix, at full precision. *)
let test_qasm_roundtrip_fig9_fig10 () =
  let options = { Compiler.Pipeline.default_options with nuop = Proptest.fast_nuop } in
  let circuit = Apps.Qv.circuit (Rng.create 26) 3 in
  let pairs device sets = List.map (fun isa -> (device, isa)) sets in
  List.iter
    (fun (device, isa) ->
      let label = Isa.Set.name isa ^ " on " ^ Device.name device in
      let compiled = (Compiler.Pipeline.compile ~options ~device ~isa circuit).circuit in
      let parsed = Qcir.Qasm.of_string (Qcir.Qasm.to_string compiled) in
      check_int (label ^ ": instructions") (Qcir.Circuit.length compiled)
        (Qcir.Circuit.length parsed);
      List.iter2
        (fun a b ->
          let ga = Qcir.Instr.gate a in
          check_bool (label ^ ": qubits") true (Qcir.Instr.qubits a = Qcir.Instr.qubits b);
          check_bool
            (label ^ ": " ^ Gates.Gate.name ga)
            true
            (Mat.equal ~eps:1e-10 (Gates.Gate.matrix ga) (Gates.Gate.matrix (Qcir.Instr.gate b))))
        (Qcir.Circuit.instrs compiled) (Qcir.Circuit.instrs parsed))
    (pairs (Device.aspen8 ()) Isa.Set.(rigetti_singles @ rigetti_multis @ [ full_xy ])
    @ pairs (Device.sycamore_line 6) Isa.Set.(google_singles @ google_multis @ [ full_fsim ]))

let test_qasm_parse_errors () =
  check_bool "missing qreg" true
    (try
       ignore (Qcir.Qasm.of_string "OPENQASM 2.0;\nh q[0];\n");
       false
     with Qcir.Qasm.Parse_error _ -> true)

let test_qasm_angle_expressions () =
  let text =
    "OPENQASM 2.0;\nqreg q[2];\nrx(pi/2) q[0];\nrz(-pi) q[1];\nrx(3*pi/4) q[0];\n"
  in
  let c = Qcir.Qasm.of_string text in
  check_int "3 gates" 3 (Qcir.Circuit.length c)

let test_qasm_file_roundtrip () =
  let path = Filename.temp_file "nuop" ".qasm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = sample_circuit () in
      Qcir.Qasm.to_file path c;
      let parsed = Qcir.Qasm.of_file path in
      check_int "length preserved-ish" (Qcir.Circuit.n_qubits c) (Qcir.Circuit.n_qubits parsed))

(* ---------- Cphase family ---------- *)

let test_cphase_family_basics () =
  check_int "1 param" 1 (Gates.Gate_type.param_count Gates.Gate_type.Cphase_family);
  check_bool "is family" true (Gates.Gate_type.is_family Gates.Gate_type.Cphase_family);
  check_bool "instantiate" true
    (Mat.equal
       (Gates.Gate_type.instantiate Gates.Gate_type.Cphase_family [| 0.8 |])
       (Gates.Twoq.cphase 0.8))

let test_cphase_family_decomposes_zz_in_one () =
  (* ZZ(b) is a controlled-phase up to locals: one CZ(phi) gate suffices *)
  let d =
    Decompose.Nuop.decompose_exact Gates.Gate_type.Cphase_family
      ~target:(Gates.Twoq.zz 0.6)
  in
  check_int "1 gate" 1 d.Decompose.Nuop.layers;
  check_bool "exact" true (d.Decompose.Nuop.fd > 1.0 -. 1e-6)

let test_cphase_family_su4_needs_more () =
  let rng = Rng.create 5 in
  let u = Qr.haar_special_unitary rng 4 in
  let d = Decompose.Nuop.decompose_exact Gates.Gate_type.Cphase_family ~target:u in
  check_bool ">= 3 gates" true (d.Decompose.Nuop.layers >= 3)

let test_full_cphase_isa () =
  check_bool "registered" true (Isa.Set.find "Full_CZphi" <> None);
  check_bool "continuous" true (Isa.Set.is_continuous Isa.Set.full_cphase)

(* ---------- Drift ---------- *)

let test_drift_path_properties () =
  let rng = Rng.create 6 in
  let path =
    Calibration.Drift.simulate_multiplier_path rng Calibration.Drift.default ~hours:24.0
  in
  check_bool "nonempty" true (path <> []);
  List.iter (fun m -> check_bool ">= 1" true (m >= 1.0)) path

let test_drift_grows_with_period () =
  let p = Calibration.Drift.default in
  let mean h = Calibration.Drift.mean_multiplier ~samples:200 (Rng.create 7) p ~period_hours:h in
  let short = mean 2.0 and long = mean 96.0 in
  check_bool "longer period is staler" true (long > short +. 0.2)

let test_drift_policy_monotone_in_types () =
  let rng = Rng.create 8 in
  let policies =
    Calibration.Drift.best_policies ~rng ~type_counts:[ 1; 8; 64 ]
      ~base_error:0.005 ~gates_per_program:50
  in
  match policies with
  | [ a; b; c ] ->
    check_bool "more types, lower score" true
      (a.Calibration.Drift.effective_fidelity_score
       > b.Calibration.Drift.effective_fidelity_score
      && b.Calibration.Drift.effective_fidelity_score
         > c.Calibration.Drift.effective_fidelity_score)
  | _ -> Alcotest.fail "expected three policies"

let test_drift_degrade_calibration () =
  let cal = Device.Sycamore.line_device 4 in
  let before = Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s1 in
  let degraded =
    Calibration.Drift.degrade_calibration cal ~rng:(Rng.create 9)
      ~drift:Calibration.Drift.default ~hours_since_calibration:48.0
  in
  let after = Device.Calibration.twoq_error degraded (0, 1) Gates.Gate_type.s1 in
  check_bool "error did not improve" true (after >= before -. 1e-12);
  check_float "input unchanged" before
    (Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s1)

(* ---------- Mitigation ---------- *)

let test_mitigation_exact_inverse () =
  (* mitigation undoes the readout channel exactly (before clipping) *)
  let probs = [| 0.55; 0.2; 0.15; 0.1 |] in
  let rates = [| 0.04; 0.07 |] in
  let corrupted = Sim.Channel.apply_readout_error ~error_rates:rates probs in
  let recovered = Sim.Mitigation.mitigate_readout ~error_rates:rates corrupted in
  Array.iteri
    (fun k p -> check_bool "recovered" true (Float.abs (p -. recovered.(k)) < 1e-9))
    probs

let test_mitigation_normalizes () =
  let out =
    Sim.Mitigation.mitigate_readout ~error_rates:[| 0.2 |] [| 0.95; 0.05 |]
  in
  check_float "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 out);
  Array.iter (fun p -> check_bool "non-negative" true (p >= 0.0)) out

let test_mitigation_noop () =
  let probs = [| 0.3; 0.7 |] in
  let out = Sim.Mitigation.mitigate_readout ~error_rates:[| 0.0 |] probs in
  Alcotest.(check (array (float 1e-12))) "unchanged" probs out

(* ---------- Edge coloring ---------- *)

let coloring_is_proper topo =
  let colored = Device.Topology.edge_coloring topo in
  List.for_all
    (fun ((a, b), c) ->
      List.for_all
        (fun ((a', b'), c') ->
          (a, b) = (a', b')
          || c <> c'
          || (a <> a' && a <> b' && b <> a' && b <> b'))
        colored)
    colored

let test_coloring_proper () =
  check_bool "ring" true (coloring_is_proper (Device.Topology.ring 8));
  check_bool "grid" true (coloring_is_proper (Device.Topology.grid 4 5));
  check_bool "line" true (coloring_is_proper (Device.Topology.line 7))

let test_coloring_classes () =
  check_int "even ring" 2 (Device.Topology.coloring_classes (Device.Topology.ring 8));
  check_int "line" 2 (Device.Topology.coloring_classes (Device.Topology.line 9));
  (* grid: greedy stays within max_degree + 1 *)
  let topo = Device.Topology.grid 6 9 in
  check_bool "grid bounded" true
    (Device.Topology.coloring_classes topo <= Device.Topology.max_degree topo + 1)

let test_coloring_time_model () =
  let topo = Device.Topology.ring 8 in
  (* 2 batches x 2 h x 3 types = 12 h *)
  check_float "ring time" 12.0
    (Isa.Cost.of_type_count ~topology:topo 3).Isa.Cost.hours_parallel

let seed_arb = Proptest.arbitrary ~print:string_of_int (Proptest.Gen.int_range 0 10000)

let prop_coloring_proper_random =
  Proptest.test ~count:25 "random graph colorings are proper" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 8 in
      let edges = ref [] in
      for a = 0 to n - 2 do
        for b = a + 1 to n - 1 do
          if Rng.float rng < 0.4 then edges := (a, b) :: !edges
        done
      done;
      let topo = Device.Topology.of_edges n !edges in
      coloring_is_proper topo)

let prop_qasm_roundtrip_qv =
  Proptest.test ~count:8 "qasm roundtrip preserves compiled circuits" seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let u = Qr.haar_special_unitary rng 4 in
      let d =
        Decompose.Nuop.decompose_exact
          ~options:{ Decompose.Nuop.default_options with starts = 2 }
          Gates.Gate_type.s3 ~target:u
      in
      let c = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
      let parsed = Qcir.Qasm.of_string (Qcir.Qasm.to_string c) in
      let a = Sim.State.run_circuit c and b = Sim.State.run_circuit parsed in
      Float.abs (Sim.State.fidelity_pure a b -. 1.0) < 1e-8)

let () =
  Alcotest.run "extensions"
    [
      ( "qasm",
        [
          Alcotest.test_case "roundtrip" `Quick test_qasm_roundtrip;
          Alcotest.test_case "zz roundtrip" `Quick test_qasm_zz_roundtrip;
          Alcotest.test_case "prelude xxyy identity" `Quick test_qasm_prelude_xxyy_identity;
          Alcotest.test_case "unsupported gate" `Quick test_qasm_unsupported;
          Alcotest.test_case "fig9/fig10 compiles roundtrip" `Quick test_qasm_roundtrip_fig9_fig10;
          Alcotest.test_case "parse errors" `Quick test_qasm_parse_errors;
          Alcotest.test_case "angle expressions" `Quick test_qasm_angle_expressions;
          Alcotest.test_case "file roundtrip" `Quick test_qasm_file_roundtrip;
        ] );
      ( "cphase_family",
        [
          Alcotest.test_case "basics" `Quick test_cphase_family_basics;
          Alcotest.test_case "zz in one gate" `Quick test_cphase_family_decomposes_zz_in_one;
          Alcotest.test_case "su4 needs >= 3" `Quick test_cphase_family_su4_needs_more;
          Alcotest.test_case "isa" `Quick test_full_cphase_isa;
        ] );
      ( "drift",
        [
          Alcotest.test_case "path properties" `Quick test_drift_path_properties;
          Alcotest.test_case "staleness grows" `Quick test_drift_grows_with_period;
          Alcotest.test_case "policy monotone" `Quick test_drift_policy_monotone_in_types;
          Alcotest.test_case "degrade calibration" `Quick test_drift_degrade_calibration;
        ] );
      ( "mitigation",
        [
          Alcotest.test_case "exact inverse" `Quick test_mitigation_exact_inverse;
          Alcotest.test_case "normalizes" `Quick test_mitigation_normalizes;
          Alcotest.test_case "noop" `Quick test_mitigation_noop;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "proper" `Quick test_coloring_proper;
          Alcotest.test_case "classes" `Quick test_coloring_classes;
          Alcotest.test_case "time model" `Quick test_coloring_time_model;
        ] );
      ("properties", [ prop_coloring_proper_random; prop_qasm_roundtrip_qv ]);
    ]
