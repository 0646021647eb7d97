(* Cross-cutting algebraic identities: fSim-family composition laws,
   Weyl classes of named gates, channel composition, simulator/algebra
   consistency.  Each case checks a distinct mathematical fact the
   reproduction relies on. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let pi = Float.pi

let locally_eq a b = Decompose.Weyl.locally_equivalent ~eps:1e-6 a b

(* ---------- fSim family algebra ---------- *)

let test_fsim_iswap_axis_composes () =
  (* fSim(a, 0) fSim(b, 0) = fSim(a+b, 0) *)
  List.iter
    (fun (a, b) ->
      check_bool "composes" true
        (Mat.equal ~eps:1e-12
           (Mat.mul (Gates.Twoq.fsim a 0.0) (Gates.Twoq.fsim b 0.0))
           (Gates.Twoq.fsim (a +. b) 0.0)))
    [ (0.2, 0.3); (pi /. 4.0, pi /. 4.0); (1.0, -0.4) ]

let test_fsim_cphase_axis_composes () =
  List.iter
    (fun (a, b) ->
      check_bool "composes" true
        (Mat.equal ~eps:1e-12
           (Mat.mul (Gates.Twoq.fsim 0.0 a) (Gates.Twoq.fsim 0.0 b))
           (Gates.Twoq.fsim 0.0 (a +. b))))
    [ (0.5, 0.7); (pi /. 2.0, pi /. 2.0) ]

let test_fsim_axes_commute () =
  let a = Gates.Twoq.fsim 0.6 0.0 and b = Gates.Twoq.fsim 0.0 1.1 in
  check_bool "commute" true (Mat.equal ~eps:1e-12 (Mat.mul a b) (Mat.mul b a));
  (* and their product is the full fSim gate *)
  check_bool "factorizes" true (Mat.equal ~eps:1e-12 (Mat.mul a b) (Gates.Twoq.fsim 0.6 1.1))

let test_fsim_period () =
  (* fSim(theta + 2pi, phi) = fSim(theta, phi) *)
  check_bool "theta period" true
    (Mat.equal ~eps:1e-9 (Gates.Twoq.fsim (0.4 +. (2.0 *. pi)) 0.9) (Gates.Twoq.fsim 0.4 0.9))

let test_iswap_squared_local () =
  (* iSWAP^2 = diag(1,-1,-1,1) = Z (x) Z — a local gate *)
  let sq = Mat.mul Gates.Twoq.iswap Gates.Twoq.iswap in
  check_bool "local" true (Decompose.Weyl.is_local sq);
  check_bool "equals ZZ" true
    (Mat.equal ~eps:1e-12 sq (Mat.kron Gates.Oneq.z Gates.Oneq.z))

let test_cz_squared_identity () =
  check_bool "cz^2 = I" true
    (Mat.equal ~eps:1e-12 (Mat.mul Gates.Twoq.cz Gates.Twoq.cz) (Mat.identity 4))

let test_swap_squared_identity () =
  check_bool "swap^2 = I" true
    (Mat.equal ~eps:1e-12 (Mat.mul Gates.Twoq.swap Gates.Twoq.swap) (Mat.identity 4))

(* ---------- Weyl classes of Table II's gate types ---------- *)

let coordinates_of ty =
  Decompose.Weyl.coordinates (Gates.Gate_type.instantiate ty [||])

let close a b = Float.abs (a -. b) < 1e-5

let test_s_gate_coordinates () =
  (* fSim(theta, 0) has coordinates (theta/2, theta/2, 0) *)
  let c1, c2, c3 = coordinates_of Gates.Gate_type.s5 in
  check_bool "s5" true (close c1 (pi /. 6.0) && close c2 (pi /. 6.0) && close c3 0.0);
  let c1, c2, c3 = coordinates_of Gates.Gate_type.s6 in
  check_bool "s6" true
    (close c1 (3.0 *. pi /. 16.0) && close c2 (3.0 *. pi /. 16.0) && close c3 0.0)

let test_syc_coordinates () =
  (* SYC = fSim(pi/2, pi/6): coordinates (pi/4, pi/4, pi/24) *)
  let c1, c2, c3 = coordinates_of Gates.Gate_type.s1 in
  check_bool "syc" true
    (close c1 (pi /. 4.0) && close c2 (pi /. 4.0) && close (Float.abs c3) (pi /. 24.0))

let test_s7_class_distinct_from_cz () =
  check_bool "s7 /~ cz" false
    (locally_eq
       (Gates.Gate_type.instantiate Gates.Gate_type.s7 [||])
       Gates.Twoq.cz)

let test_all_s_types_pairwise_distinct () =
  let types =
    Gates.Gate_type.[ s1; s2; s3; s4; s5; s6; s7; swap_type ]
  in
  List.iteri
    (fun i ti ->
      List.iteri
        (fun j tj ->
          if i < j then
            check_bool
              (Printf.sprintf "%s vs %s distinct" (Gates.Gate_type.name ti)
                 (Gates.Gate_type.name tj))
              false
              (locally_eq
                 (Gates.Gate_type.instantiate ti [||])
                 (Gates.Gate_type.instantiate tj [||])))
        types)
    types

let test_b_gate_two_gate_universality () =
  (* the Berkeley gate N(pi/4, pi/8, 0) reaches any SU(4) in 2 uses —
     a classic result NuOp should reproduce *)
  let b = Decompose.Weyl.canonical_gate (pi /. 4.0) (pi /. 8.0) 0.0 in
  let ty = Gates.Gate_type.fixed "B" b in
  let rng = Rng.create 12 in
  let ok = ref true in
  for _ = 1 to 3 do
    let u = Qr.haar_special_unitary rng 4 in
    let d =
      Decompose.Nuop.decompose_exact
        ~options:{ Decompose.Nuop.default_options with starts = 5 }
        ty ~target:u
    in
    if d.Decompose.Nuop.layers > 2 || d.Decompose.Nuop.fd < 1.0 -. 1e-5 then ok := false
  done;
  check_bool "B gate: 2 applications suffice" true !ok

(* ---------- channel algebra ---------- *)

let apply_channel rho channel qubits =
  Sim.Density.apply_superoperator rho
    (Sim.State.prepare (Sim.Channel.superoperator channel))
    qubits

let test_depolarizing_composition () =
  (* two depolarizing channels compose into one with
     1 - p = (1 - 4 p1 / 3 ... ) — verify numerically on a state *)
  let rho1 = Sim.Density.create 1 in
  Sim.Density.apply_unitary rho1 Gates.Oneq.h [| 0 |];
  let rho2 = Sim.Density.copy rho1 in
  apply_channel rho1 (Sim.Channel.depolarizing_1q 0.1) [| 0 |];
  apply_channel rho1 (Sim.Channel.depolarizing_1q 0.1) [| 0 |];
  (* effective single channel: contraction factors multiply;
     lambda = 1 - 4p/3 per channel *)
  let lam = 1.0 -. (4.0 *. 0.1 /. 3.0) in
  let p_eff = 3.0 *. (1.0 -. (lam *. lam)) /. 4.0 in
  apply_channel rho2 (Sim.Channel.depolarizing_1q p_eff) [| 0 |];
  for r = 0 to 1 do
    for c = 0 to 1 do
      check_bool "entries match" true
        (Complex.norm (Complex.sub (Sim.Density.get rho1 r c) (Sim.Density.get rho2 r c))
        < 1e-9)
    done
  done

let test_amplitude_damping_composition () =
  (* gamma composes as 1 - (1-g1)(1-g2) *)
  let rho1 = Sim.Density.create 1 in
  Sim.Density.apply_unitary rho1 Gates.Oneq.x [| 0 |];
  let rho2 = Sim.Density.copy rho1 in
  apply_channel rho1 (Sim.Channel.amplitude_damping 0.2) [| 0 |];
  apply_channel rho1 (Sim.Channel.amplitude_damping 0.3) [| 0 |];
  apply_channel rho2
    (Sim.Channel.amplitude_damping (1.0 -. (0.8 *. 0.7)))
    [| 0 |];
  Alcotest.(check (float 1e-9)) "p1 matches"
    (Sim.Density.probability rho2 1)
    (Sim.Density.probability rho1 1)

let test_superoperator_matches_kraus () =
  (* applying the superoperator through the density simulator equals
     summing Kraus conjugations by hand *)
  let ch = Sim.Channel.depolarizing_1q 0.23 in
  let rng = Rng.create 9 in
  let u = Qr.haar_unitary rng 2 in
  let rho = Sim.Density.create 1 in
  Sim.Density.apply_unitary rho u [| 0 |];
  (* by hand on a 2x2 matrix *)
  let dense = Mat.init 2 2 (fun r c -> Sim.Density.get rho r c) in
  let by_hand =
    List.fold_left
      (fun acc k -> Mat.add acc (Mat.mul k (Mat.mul dense (Mat.dagger k))))
      (Mat.zero 2 2) (Sim.Channel.kraus ch)
  in
  apply_channel rho ch [| 0 |];
  for r = 0 to 1 do
    for c = 0 to 1 do
      check_bool "match" true
        (Complex.norm (Complex.sub (Sim.Density.get rho r c) (Mat.get by_hand r c)) < 1e-9)
    done
  done

(* ---------- decomposition/simulator consistency ---------- *)

let test_compiled_gates_respect_isa_matrices () =
  (* every two-qubit gate the pipeline emits must exactly equal one of
     the ISA's calibrated unitaries *)
  let device = Device.sycamore_line 4 in
  let isa = Isa.Set.g3 in
  let rng = Rng.create 21 in
  let circuit = Apps.Qv.circuit rng 3 in
  let compiled =
    Compiler.Pipeline.compile
      ~options:
        {
          Compiler.Pipeline.default_options with
          nuop = { Decompose.Nuop.default_options with starts = 2 };
        }
      ~device ~isa circuit
  in
  let unitaries =
    List.map (fun ty -> Gates.Gate_type.instantiate ty [||]) (Isa.Set.gate_types isa)
  in
  Qcir.Circuit.iter
    (fun instr ->
      if Qcir.Instr.is_two_qubit instr then
        check_bool "known unitary" true
          (List.exists
             (fun u -> Mat.equal ~eps:1e-9 u (Gates.Gate.matrix (Qcir.Instr.gate instr)))
             unitaries))
    compiled.Compiler.Pipeline.circuit

let test_hop_of_flat_ideal_is_stable () =
  (* QFT output is flat: the heavy set is empty (no output above the
     median), so HOP must be 0 — metric edge case *)
  let ideal = Metrics.Dist.uniform 8 in
  Alcotest.(check (float 1e-12)) "flat HOP" 0.0
    (Metrics.Hop.probability ~ideal ~noisy:ideal)

let test_cirq_like_matches_weyl_on_classes () =
  (* the baseline's CZ counts equal the Weyl bound on every named gate *)
  List.iter
    (fun (m, expected) ->
      match Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 m with
      | Some r -> check_int "count" expected r.Decompose.Cirq_like.gate_count
      | None -> Alcotest.fail "CZ target must be supported")
    [
      (Mat.identity 4, 0);
      (Gates.Twoq.cz, 1);
      (Gates.Twoq.iswap, 2);
      (Gates.Twoq.swap, 3);
      (Gates.Twoq.syc, 3);
    ]

let () =
  Alcotest.run "identities"
    [
      ( "fsim_algebra",
        [
          Alcotest.test_case "iswap axis composes" `Quick test_fsim_iswap_axis_composes;
          Alcotest.test_case "cphase axis composes" `Quick test_fsim_cphase_axis_composes;
          Alcotest.test_case "axes commute & factorize" `Quick test_fsim_axes_commute;
          Alcotest.test_case "theta period" `Quick test_fsim_period;
          Alcotest.test_case "iswap^2 local" `Quick test_iswap_squared_local;
          Alcotest.test_case "cz^2 = I" `Quick test_cz_squared_identity;
          Alcotest.test_case "swap^2 = I" `Quick test_swap_squared_identity;
        ] );
      ( "weyl_classes",
        [
          Alcotest.test_case "iswap-axis coordinates" `Quick test_s_gate_coordinates;
          Alcotest.test_case "syc coordinates" `Quick test_syc_coordinates;
          Alcotest.test_case "s7 distinct from cz" `Quick test_s7_class_distinct_from_cz;
          Alcotest.test_case "S types pairwise distinct" `Quick test_all_s_types_pairwise_distinct;
          Alcotest.test_case "B gate 2-universality" `Slow test_b_gate_two_gate_universality;
        ] );
      ( "channel_algebra",
        [
          Alcotest.test_case "depolarizing composes" `Quick test_depolarizing_composition;
          Alcotest.test_case "damping composes" `Quick test_amplitude_damping_composition;
          Alcotest.test_case "superop = kraus" `Quick test_superoperator_matches_kraus;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "compiled gates in ISA" `Quick test_compiled_gates_respect_isa_matrices;
          Alcotest.test_case "flat-ideal HOP" `Quick test_hop_of_flat_ideal_is_stable;
          Alcotest.test_case "cirq = weyl bound" `Quick test_cirq_like_matches_weyl_on_classes;
        ] );
    ]
