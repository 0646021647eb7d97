(* Tests for the benchmark circuit generators. *)

open Linalg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Graph ---------- *)

let test_graph_complete () =
  let g = Apps.Graph.complete 5 in
  check_int "edges" 10 (Apps.Graph.edge_count g)

let test_graph_ring () =
  let g = Apps.Graph.ring 6 in
  check_int "edges" 6 (Apps.Graph.edge_count g)

let test_graph_erdos_renyi () =
  let rng = Rng.create 1 in
  let g = Apps.Graph.erdos_renyi rng 8 in
  check_bool "nonempty" true (Apps.Graph.edge_count g >= 1);
  check_bool "bounded" true (Apps.Graph.edge_count g <= 28);
  List.iter
    (fun (a, b) -> check_bool "valid edge" true (a >= 0 && b < 8 && a < b))
    (Apps.Graph.edges g)

let test_graph_maxcut () =
  (* ring of 4: max cut = 4 (alternate) *)
  check_int "c4 cut" 4 (Apps.Graph.max_cut_brute_force (Apps.Graph.ring 4));
  (* ring of 5 (odd cycle): max cut = 4 *)
  check_int "c5 cut" 4 (Apps.Graph.max_cut_brute_force (Apps.Graph.ring 5));
  (* complete graph K4: max cut = 4 *)
  check_int "k4 cut" 4 (Apps.Graph.max_cut_brute_force (Apps.Graph.complete 4))

let test_graph_cut_value () =
  let g = Apps.Graph.ring 4 in
  check_int "alternating" 4 (Apps.Graph.cut_value g [| true; false; true; false |]);
  check_int "all same" 0 (Apps.Graph.cut_value g [| true; true; true; true |])

let test_three_regular () =
  let rng = Rng.create 2 in
  let g = Apps.Graph.three_regular rng 8 in
  check_bool "near 3n/2 edges" true
    (Apps.Graph.edge_count g >= 8 && Apps.Graph.edge_count g <= 12)

(* ---------- QV ---------- *)

let test_qv_census () =
  let rng = Rng.create 3 in
  let c = Apps.Qv.circuit rng 4 in
  (* n layers of floor(n/2) SU4 gates *)
  check_int "gates" 8 (Qcir.Circuit.two_qubit_count c);
  check_int "no 1q" 0 (Qcir.Circuit.one_qubit_count c)

let test_qv_odd_size () =
  let rng = Rng.create 4 in
  let c = Apps.Qv.circuit rng 5 in
  check_int "gates" 10 (Qcir.Circuit.two_qubit_count c)

let test_qv_circuits_distinct () =
  let rng = Rng.create 5 in
  match Apps.Qv.circuits rng ~count:2 3 with
  | [ a; b ] ->
    let pa = Sim.State.probabilities (Sim.State.run_circuit a) in
    let pb = Sim.State.probabilities (Sim.State.run_circuit b) in
    check_bool "different unitaries" true
      (Array.exists2 (fun x y -> Float.abs (x -. y) > 1e-6) pa pb)
  | _ -> Alcotest.fail "expected two circuits"

let test_qv_random_unitary_su4 () =
  let rng = Rng.create 6 in
  let u = Apps.Qv.random_unitary rng in
  check_bool "unitary" true (Mat.is_unitary ~eps:1e-8 u);
  check_bool "det 1" true (Cplx.equal ~eps:1e-7 (Mat.det u) Cplx.one)

(* ---------- QAOA ---------- *)

let test_qaoa_census () =
  let rng = Rng.create 7 in
  let inst = Apps.Qaoa.random_instance rng 5 in
  let c = Apps.Qaoa.circuit_of_instance inst in
  check_int "zz count" (Apps.Graph.edge_count inst.Apps.Qaoa.graph)
    (Qcir.Circuit.two_qubit_count c);
  (* n Hadamards + n mixers *)
  check_int "1q count" 10 (Qcir.Circuit.one_qubit_count c)

let test_qaoa_angle_ranges () =
  let rng = Rng.create 8 in
  for _ = 1 to 20 do
    let inst = Apps.Qaoa.random_instance rng 4 in
    check_bool "gamma" true (inst.Apps.Qaoa.gamma >= 0.4 && inst.Apps.Qaoa.gamma <= 1.2);
    check_bool "beta" true (inst.Apps.Qaoa.beta >= 0.2 && inst.Apps.Qaoa.beta <= 0.8)
  done

let test_qaoa_uniform_superposition_weights () =
  (* with gamma such that ZZ phases vanish the output is driven by the
     mixer only; just validate normalization here *)
  let rng = Rng.create 9 in
  let c = Apps.Qaoa.circuit rng 4 in
  let p = Sim.State.probabilities (Sim.State.run_circuit c) in
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 p)

(* ---------- Fermi-Hubbard ---------- *)

let test_fh_census () =
  let n = 8 in
  let c = Apps.Fermi_hubbard.circuit n in
  (* 2 interaction sweeps of n/2 sites = n ZZ gates, 4 hopping layers *)
  let zz = ref 0 and hop = ref 0 in
  Qcir.Circuit.iter
    (fun i ->
      let name = Gates.Gate.name (Qcir.Instr.gate i) in
      if String.length name >= 2 && String.sub name 0 2 = "zz" then incr zz
      else if String.length name >= 3 && String.sub name 0 3 = "hop" then incr hop)
    c;
  check_int "zz" n !zz;
  (* 4 hopping layers over both spin chains: 2 * (even bonds + odd bonds) * 2 *)
  check_bool "hopping ~ 2n" true (!hop >= n && !hop <= 2 * n)

let test_fh_validation () =
  Alcotest.check_raises "odd size"
    (Invalid_argument "Fermi_hubbard.circuit: need an even qubit count >= 4")
    (fun () -> ignore (Apps.Fermi_hubbard.circuit 5))

let test_fh_interleaved_layout () =
  (* on-site pairs are adjacent on the line *)
  Alcotest.(check int) "up0" 0 (Apps.Fermi_hubbard.up 4 0);
  Alcotest.(check int) "down0" 1 (Apps.Fermi_hubbard.down 4 0);
  Alcotest.(check int) "up1" 2 (Apps.Fermi_hubbard.up 4 1)

let test_fh_normalized () =
  let c = Apps.Fermi_hubbard.circuit 6 in
  let p = Sim.State.probabilities (Sim.State.run_circuit c) in
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 p)

let test_fh_excitation_number_conserved () =
  (* hopping + ZZ conserve total excitation number; the initial X layer
     creates ceil(m/2) fermions *)
  let n = 6 in
  let c = Apps.Fermi_hubbard.circuit n in
  let p = Sim.State.probabilities (Sim.State.run_circuit c) in
  let popcount x =
    let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
    go 0 x
  in
  let expected = 2 (* sites 0 and 2 of 3 are filled *) in
  Array.iteri
    (fun idx pr ->
      if pr > 1e-9 then check_int "hamming weight" expected (popcount idx))
    p

(* ---------- QFT ---------- *)

let test_qft_census () =
  let n = 5 in
  let c = Apps.Qft.circuit n in
  check_int "cphase count" (n * (n - 1) / 2) (Qcir.Circuit.two_qubit_count c);
  check_int "h count" n (Qcir.Circuit.one_qubit_count c)

(* |<expected QFT output of [input] | state of [c]>|^2 *)
let qft_fidelity ~n ~input c =
  let s = Sim.State.run_circuit c in
  let expect = Apps.Qft.expected_state ~n_qubits:n ~input in
  let overlap = ref Complex.zero in
  Array.iteri
    (fun k e ->
      overlap := Complex.add !overlap (Complex.mul (Complex.conj e) (Sim.State.amplitude s k)))
    expect;
  Complex.norm2 !overlap

let test_qft_expected_state_matches_simulation () =
  let n = 3 in
  List.iter
    (fun input ->
      let prep = ref (Qcir.Circuit.empty n) in
      for q = 0 to n - 1 do
        if (input lsr q) land 1 = 1 then
          prep := Qcir.Circuit.add_gate !prep Gates.Gate.x [| q |]
      done;
      let c = Qcir.Circuit.append !prep (Apps.Qft.circuit n) in
      Alcotest.(check (float 1e-6)) "fidelity" 1.0 (qft_fidelity ~n ~input c))
    [ 0; 1; 5; 7 ]

let test_qft_with_input () =
  (* the k-th study input is the basis state (2k+1) mod 2^n: k = 4 wraps
     to input 1 on three qubits *)
  let n = 3 in
  List.iter
    (fun (k, input) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "input %d" k) 1.0
        (qft_fidelity ~n ~input (Apps.Qft.with_input n k)))
    [ (0, 1); (1, 3); (3, 7); (4, 1) ]

let test_qft_flat_distribution () =
  (* QFT of a basis state has uniform output probabilities *)
  let n = 4 in
  let c = Apps.Qft.circuit n in
  let p = Sim.State.probabilities (Sim.State.run_circuit c) in
  Array.iter (fun pr -> Alcotest.(check (float 1e-9)) "flat" (1.0 /. 16.0) pr) p

let test_qft_controlled_phase_set () =
  let us = Apps.Qft.controlled_phase_unitaries 4 in
  check_int "3 distinct" 3 (List.length us);
  List.iter (fun u -> check_bool "unitary" true (Mat.is_unitary u)) us

(* ---------- Su4_unitaries ---------- *)

let test_su4_sets () =
  let rng = Rng.create 10 in
  check_int "qv" 7 (List.length (Apps.Su4_unitaries.qv_set rng ~count:7));
  check_int "qft capped" 10 (List.length (Apps.Su4_unitaries.qft_set ~count:10 ()));
  check_int "swap" 1 (List.length (Apps.Su4_unitaries.swap_set ()));
  List.iter
    (fun app ->
      let us = Apps.Su4_unitaries.sample rng app ~count:4 in
      List.iter (fun u -> check_bool "unitary" true (Mat.is_unitary ~eps:1e-8 u)) us)
    Apps.Su4_unitaries.all_applications

(* every generated circuit is well-formed & normalized *)
let prop_generators_normalized =
  Proptest.test ~count:15 "generators produce normalized circuits"
    (Proptest.arbitrary ~print:string_of_int (Proptest.Gen.int_range 0 100000))
    (fun seed ->
      let rng = Rng.create seed in
      let circuits =
        [ Apps.Qv.circuit rng 3; Apps.Qaoa.circuit rng 4; Apps.Qft.circuit 4 ]
      in
      List.for_all
        (fun c ->
          Float.abs (Sim.State.norm2 (Sim.State.run_circuit c) -. 1.0) < 1e-8)
        circuits)

let () =
  Alcotest.run "apps"
    [
      ( "graph",
        [
          Alcotest.test_case "complete" `Quick test_graph_complete;
          Alcotest.test_case "ring" `Quick test_graph_ring;
          Alcotest.test_case "erdos-renyi" `Quick test_graph_erdos_renyi;
          Alcotest.test_case "maxcut brute force" `Quick test_graph_maxcut;
          Alcotest.test_case "cut value" `Quick test_graph_cut_value;
          Alcotest.test_case "3-regular" `Quick test_three_regular;
        ] );
      ( "qv",
        [
          Alcotest.test_case "census" `Quick test_qv_census;
          Alcotest.test_case "odd size" `Quick test_qv_odd_size;
          Alcotest.test_case "distinct" `Quick test_qv_circuits_distinct;
          Alcotest.test_case "su4 sampler" `Quick test_qv_random_unitary_su4;
        ] );
      ( "qaoa",
        [
          Alcotest.test_case "census" `Quick test_qaoa_census;
          Alcotest.test_case "angle ranges" `Quick test_qaoa_angle_ranges;
          Alcotest.test_case "normalized" `Quick test_qaoa_uniform_superposition_weights;
        ] );
      ( "fermi_hubbard",
        [
          Alcotest.test_case "census" `Quick test_fh_census;
          Alcotest.test_case "validation" `Quick test_fh_validation;
          Alcotest.test_case "layout" `Quick test_fh_interleaved_layout;
          Alcotest.test_case "normalized" `Quick test_fh_normalized;
          Alcotest.test_case "excitation conserved" `Quick test_fh_excitation_number_conserved;
        ] );
      ( "qft",
        [
          Alcotest.test_case "census" `Quick test_qft_census;
          Alcotest.test_case "expected state" `Quick test_qft_expected_state_matches_simulation;
          Alcotest.test_case "basis inputs" `Quick test_qft_with_input;
          Alcotest.test_case "flat distribution" `Quick test_qft_flat_distribution;
          Alcotest.test_case "phase set" `Quick test_qft_controlled_phase_set;
        ] );
      ("su4_sets", [ Alcotest.test_case "sets" `Quick test_su4_sets ]);
      ("properties", [ prop_generators_normalized ]);
    ]
