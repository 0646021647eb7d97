(* Tests for the gate vocabulary: unitarity, Table I conventions, family
   identities. *)

open Linalg

let check_bool = Alcotest.(check bool)

let c re im = { Complex.re; im }
let r x = c x 0.0

(* ---------- single-qubit gates ---------- *)

let test_oneq_unitary () =
  List.iter
    (fun (name, m) -> check_bool name true (Mat.is_unitary m))
    [
      ("x", Gates.Oneq.x);
      ("y", Gates.Oneq.y);
      ("z", Gates.Oneq.z);
      ("h", Gates.Oneq.h);
      ("s", Gates.Oneq.s_gate);
      ("t", Gates.Oneq.t_gate);
      ("rx", Gates.Oneq.rx 0.7);
      ("ry", Gates.Oneq.ry 1.3);
      ("rz", Gates.Oneq.rz (-0.4));
      ("u3", Gates.Oneq.u3 0.5 1.1 (-2.2));
      ("phase", Gates.Oneq.phase 0.9);
    ]

let test_pauli_algebra () =
  let open Gates.Oneq in
  check_bool "x^2 = I" true (Mat.equal (Mat.mul x x) identity);
  check_bool "y^2 = I" true (Mat.equal (Mat.mul y y) identity);
  check_bool "z^2 = I" true (Mat.equal (Mat.mul z z) identity);
  (* xy = iz *)
  check_bool "xy = iz" true
    (Mat.equal (Mat.mul x y) (Mat.scale (c 0.0 1.0) z));
  check_bool "hxh = z" true (Mat.equal ~eps:1e-12 (Mat.mul h (Mat.mul x h)) z)

let test_s_t_relations () =
  let open Gates.Oneq in
  check_bool "t^2 = s" true (Mat.equal ~eps:1e-12 (Mat.mul t_gate t_gate) s_gate);
  check_bool "s sdg = I" true (Mat.equal (Mat.mul s_gate sdg) identity);
  check_bool "t tdg = I" true (Mat.equal (Mat.mul t_gate tdg) identity)

let test_u3_special_cases () =
  (* U3(0,0,0) = I *)
  check_bool "u3 identity" true (Mat.equal ~eps:1e-12 (Gates.Oneq.u3 0.0 0.0 0.0) Gates.Oneq.identity);
  (* U3(pi, 0, pi) = X in this convention *)
  let u = Gates.Oneq.u3 Float.pi 0.0 Float.pi in
  check_bool "u3 X" true (Mat.equal_up_to_phase ~eps:1e-9 u Gates.Oneq.x)

let test_rz_phase_relation () =
  (* rz(t) = e^{-it/2} phase(t) *)
  let t = 0.83 in
  let lhs = Gates.Oneq.rz t in
  let rhs = Mat.scale (Cplx.cis (-.t /. 2.0)) (Gates.Oneq.phase t) in
  check_bool "rz vs phase" true (Mat.equal ~eps:1e-12 lhs rhs)

let test_pauli_of_index () =
  check_bool "0 = I" true (Mat.equal (Gates.Oneq.pauli_of_index 0) Gates.Oneq.identity);
  Alcotest.check_raises "4 raises" (Invalid_argument "Oneq.pauli_of_index: 4") (fun () ->
      ignore (Gates.Oneq.pauli_of_index 4))

(* ---------- two-qubit gates ---------- *)

let test_twoq_unitary () =
  List.iter
    (fun (name, m) -> check_bool name true (Mat.is_unitary m))
    [
      ("cz", Gates.Twoq.cz);
      ("cnot", Gates.Twoq.cnot);
      ("swap", Gates.Twoq.swap);
      ("iswap", Gates.Twoq.iswap);
      ("sqrt_iswap", Gates.Twoq.sqrt_iswap);
      ("syc", Gates.Twoq.syc);
      ("fsim", Gates.Twoq.fsim 0.4 1.7);
      ("xy", Gates.Twoq.xy 2.1);
      ("cphase", Gates.Twoq.cphase 0.6);
      ("zz", Gates.Twoq.zz 0.9);
      ("hopping", Gates.Twoq.hopping 1.2);
    ]

let test_table1_conventions () =
  (* CZ = fSim(0, pi) (Table II header identity) *)
  check_bool "cz" true (Mat.equal ~eps:1e-12 Gates.Twoq.cz (Gates.Twoq.fsim 0.0 Float.pi));
  (* CZ matrix literal from Table I *)
  let cz_lit =
    Mat.of_rows
      [
        [ r 1.0; r 0.0; r 0.0; r 0.0 ];
        [ r 0.0; r 1.0; r 0.0; r 0.0 ];
        [ r 0.0; r 0.0; r 1.0; r 0.0 ];
        [ r 0.0; r 0.0; r 0.0; r (-1.0) ];
      ]
  in
  check_bool "cz literal" true (Mat.equal Gates.Twoq.cz cz_lit);
  (* iSWAP and sqrt(iSWAP) as fSim points *)
  check_bool "iswap" true
    (Mat.equal ~eps:1e-12 Gates.Twoq.iswap (Gates.Twoq.fsim (Float.pi /. 2.0) 0.0));
  check_bool "sqrt_iswap" true
    (Mat.equal ~eps:1e-12 Gates.Twoq.sqrt_iswap (Gates.Twoq.fsim (Float.pi /. 4.0) 0.0));
  check_bool "syc" true
    (Mat.equal ~eps:1e-12 Gates.Twoq.syc
       (Gates.Twoq.fsim (Float.pi /. 2.0) (Float.pi /. 6.0)))

let test_sqrt_iswap_squares () =
  (* fSim composition on the iSWAP axis: fSim(a,0) fSim(b,0) = fSim(a+b,0) *)
  let lhs = Mat.mul Gates.Twoq.sqrt_iswap Gates.Twoq.sqrt_iswap in
  check_bool "sqrt^2 = iswap" true (Mat.equal ~eps:1e-12 lhs Gates.Twoq.iswap)

let test_cphase_composition () =
  let lhs = Mat.mul (Gates.Twoq.cphase 0.4) (Gates.Twoq.cphase 0.8) in
  check_bool "cphase adds" true (Mat.equal ~eps:1e-12 lhs (Gates.Twoq.cphase 1.2))

let test_zz_definition () =
  (* exp(-i b ZZ) diagonal *)
  let b = 0.37 in
  let m = Gates.Twoq.zz b in
  check_bool "d0" true (Cplx.equal ~eps:1e-12 (Mat.get m 0 0) (Cplx.cis (-.b)));
  check_bool "d1" true (Cplx.equal ~eps:1e-12 (Mat.get m 1 1) (Cplx.cis b));
  check_bool "d3" true (Cplx.equal ~eps:1e-12 (Mat.get m 3 3) (Cplx.cis (-.b)))

let test_zz_pi4_is_cz_class () =
  (* ZZ(pi/4) is locally equivalent to CZ *)
  check_bool "class" true
    (Decompose.Weyl.locally_equivalent (Gates.Twoq.zz (Float.pi /. 4.0)) Gates.Twoq.cz)

let test_hopping_is_fsim () =
  check_bool "hopping" true
    (Mat.equal ~eps:1e-12 (Gates.Twoq.hopping 0.81) (Gates.Twoq.fsim 0.81 0.0))

let test_xy_fsim_equivalence () =
  (* XY(theta) ~ fSim(theta/2, 0) up to single-qubit rotations *)
  List.iter
    (fun theta ->
      check_bool "xy class" true
        (Decompose.Weyl.locally_equivalent (Gates.Twoq.xy theta)
           (Gates.Twoq.fsim (theta /. 2.0) 0.0)))
    [ 0.3; 1.0; Float.pi /. 2.0; Float.pi ]

let test_xy_pi_is_iswap_class () =
  check_bool "xy(pi) ~ iswap" true
    (Decompose.Weyl.locally_equivalent (Gates.Twoq.xy Float.pi) Gates.Twoq.iswap)

let test_cnot_cz_class () =
  check_bool "cnot ~ cz" true (Decompose.Weyl.locally_equivalent Gates.Twoq.cnot Gates.Twoq.cz)

let test_swap_conjugation () =
  (* SWAP (A (x) B) SWAP = B (x) A *)
  let rng = Rng.create 3 in
  let a = Qr.haar_unitary rng 2 and b = Qr.haar_unitary rng 2 in
  let lhs = Mat.mul Gates.Twoq.swap (Mat.mul (Mat.kron a b) Gates.Twoq.swap) in
  check_bool "swap conj" true (Mat.equal ~eps:1e-10 lhs (Mat.kron b a))

(* ---------- Gate ---------- *)

let test_gate_arity () =
  Alcotest.(check int) "1q" 1 (Gates.Gate.arity Gates.Gate.h);
  Alcotest.(check int) "2q" 2 (Gates.Gate.arity Gates.Gate.cz)

let test_gate_validation () =
  Alcotest.check_raises "non-square" (Invalid_argument "Gate.make: non-square matrix")
    (fun () -> ignore (Gates.Gate.make "bad" (Mat.create 2 3)));
  Alcotest.check_raises "non-power-of-2"
    (Invalid_argument "Gate.make: dimension is not a power of 2") (fun () ->
      ignore (Gates.Gate.make "bad" (Mat.create 3 3)))

let test_gate_su4_validation () =
  Alcotest.check_raises "wrong dims" (Invalid_argument "Gate.su4: expected a 4x4 matrix")
    (fun () -> ignore (Gates.Gate.su4 (Mat.identity 2)))

(* Building a U3 formats nothing: it allocates its matrix plus the gate
   record and its params (a per-gate sprintf once cost 223 words here,
   against Oneq.u3's 79). *)
let test_gate_u3_allocation () =
  let matrix_words =
    Proptest.minor_words_per_call ~n:1000 (fun () ->
        ignore (Sys.opaque_identity (Gates.Oneq.u3 0.3 (-1.2) 2.0)))
  in
  let gate_words =
    Proptest.minor_words_per_call ~n:1000 (fun () ->
        ignore (Sys.opaque_identity (Gates.Gate.u3 0.3 (-1.2) 2.0)))
  in
  check_bool
    (Printf.sprintf "Gate.u3 %.1f words <= Oneq.u3 %.1f + 16" gate_words matrix_words)
    true
    (gate_words <= matrix_words +. 16.0)

(* ---------- Gate_type ---------- *)

let test_gate_type_instantiate () =
  check_bool "fixed" true
    (Mat.equal
       (Gates.Gate_type.instantiate Gates.Gate_type.s3 [||])
       Gates.Twoq.cz);
  check_bool "fsim family" true
    (Mat.equal
       (Gates.Gate_type.instantiate Gates.Gate_type.Fsim_family [| 0.3; 0.9 |])
       (Gates.Twoq.fsim 0.3 0.9));
  check_bool "xy family" true
    (Mat.equal (Gates.Gate_type.instantiate Gates.Gate_type.Xy_family [| 0.5 |]) (Gates.Twoq.xy 0.5))

let test_gate_type_params () =
  Alcotest.(check int) "fixed" 0 (Gates.Gate_type.param_count Gates.Gate_type.s1);
  Alcotest.(check int) "fsim" 2 (Gates.Gate_type.param_count Gates.Gate_type.Fsim_family);
  Alcotest.(check int) "xy" 1 (Gates.Gate_type.param_count Gates.Gate_type.Xy_family)

let test_gate_type_s_defs () =
  (* S1-S7 definitions from Table II *)
  let check name ty expect =
    match ty with
    | Gates.Gate_type.Fixed { unitary; _ } ->
      check_bool name true (Mat.equal ~eps:1e-12 unitary expect)
    | _ -> Alcotest.fail "expected fixed type"
  in
  check "s1" Gates.Gate_type.s1 Gates.Twoq.syc;
  check "s2" Gates.Gate_type.s2 Gates.Twoq.sqrt_iswap;
  check "s3" Gates.Gate_type.s3 Gates.Twoq.cz;
  check "s4" Gates.Gate_type.s4 Gates.Twoq.iswap;
  check "s5" Gates.Gate_type.s5 (Gates.Twoq.fsim (Float.pi /. 3.0) 0.0);
  check "s6" Gates.Gate_type.s6 (Gates.Twoq.fsim (3.0 *. Float.pi /. 8.0) 0.0);
  check "s7" Gates.Gate_type.s7 (Gates.Twoq.fsim (Float.pi /. 6.0) Float.pi)

(* ---------- properties ---------- *)

module G = Proptest.Gen

let angles_arb =
  Proptest.arbitrary
    ~print:(fun (theta, phi) -> Printf.sprintf "theta %.17g, phi %.17g" theta phi)
    (G.pair (G.float_range 0.0 Float.pi) (G.float_range 0.0 Float.pi))

(* all fSim family members are unitary and excitation-preserving *)
let prop_fsim_unitary =
  Proptest.test ~count:100 "fsim unitary" angles_arb (fun (theta, phi) ->
      Mat.is_unitary ~eps:1e-10 (Gates.Twoq.fsim theta phi))

let prop_fsim_excitation_preserving =
  Proptest.test ~count:100 "fsim preserves |00> and excitation blocks" angles_arb
    (fun (theta, phi) ->
      let m = Gates.Twoq.fsim theta phi in
      Cplx.equal (Mat.get m 0 0) Cplx.one
      && Cplx.equal (Mat.get m 0 1) Cplx.zero
      && Cplx.equal (Mat.get m 1 0) Cplx.zero
      && Cplx.equal (Mat.get m 3 1) Cplx.zero)

(* Names are rendered on read: every parameterized constructor's name is
   the "%.4f" format it once built eagerly (-1e-5 prints -0.0000), and
   its params are the angles bit for bit. *)
let name_angle =
  G.choose
    [
      G.float_range (-7.0) 7.0;
      G.choosel [ 0.0; -0.0; -1e-5; 1e6; -1e6 ];
      G.map (fun k -> float_of_int k *. Float.pi) (G.int_range (-4) 4);
      G.map (fun k -> Float.pi /. float_of_int k) (G.int_range 2 8);
    ]

let prop_gate_names =
  Proptest.test ~count:200 "names render the eager format"
    (Proptest.arbitrary
       ~print:(fun (a, b, l) -> Printf.sprintf "%.17g, %.17g, %.17g" a b l)
       (G.triple name_angle name_angle name_angle))
    (fun (a, b, l) ->
      let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      List.for_all
        (fun (gate, name, params) ->
          let got = Gates.Gate.params gate in
          String.equal (Gates.Gate.name gate) name
          && Array.length got = Array.length params
          && Array.for_all2 same_bits got params)
        Gates.Gate.
          [
            (u3 a b l, Printf.sprintf "u3(%.4f,%.4f,%.4f)" a b l, [| a; b; l |]);
            (rx a, Printf.sprintf "rx(%.4f)" a, [| a |]);
            (rz b, Printf.sprintf "rz(%.4f)" b, [| b |]);
            (cphase l, Printf.sprintf "cphase(%.4f)" l, [| l |]);
            (fsim a b, Printf.sprintf "fsim(%.4f,%.4f)" a b, [| a; b |]);
            (xy b, Printf.sprintf "xy(%.4f)" b, [| b |]);
            (zz l, Printf.sprintf "zz(%.4f)" l, [| l |]);
            (hopping a, Printf.sprintf "hop(%.4f)" a, [| a |]);
          ])

let prop_u3_unitary =
  let angle = G.float_range (-6.3) 6.3 in
  Proptest.test ~count:100 "u3 unitary"
    (Proptest.arbitrary
       ~print:(fun (a, b, l) -> Printf.sprintf "u3(%.17g, %.17g, %.17g)" a b l)
       (G.triple angle angle angle))
    (fun (a, b, l) -> Mat.is_unitary ~eps:1e-10 (Gates.Oneq.u3 a b l))

(* ZYZ extraction recovers any U(2) up to global phase — the 1Q-merge
   peephole's correctness kernel *)
let prop_zyz_roundtrip =
  Proptest.test ~count:200 "zyz recovers U(2) up to phase"
    (Proptest.arbitrary ~print:string_of_int (G.int_range 0 1_000_000))
    (fun seed ->
      let u = Qr.haar_unitary (Rng.create seed) 2 in
      let a, b, l = Gates.Oneq.zyz u in
      Mat.equal_up_to_phase ~eps:1e-9 u (Gates.Oneq.u3 a b l))

(* the degenerate branches: diagonal and anti-diagonal unitaries *)
let prop_zyz_degenerate =
  Proptest.test ~count:100 "zyz degenerate branches"
    (Proptest.arbitrary
       ~print:(fun (theta, antidiag) ->
         Printf.sprintf "theta %.17g, antidiag %b" theta antidiag)
       (G.pair (G.float_range (-6.3) 6.3) G.bool))
    (fun (theta, antidiag) ->
      let u =
        if antidiag then Mat.mul Gates.Oneq.x (Gates.Oneq.rz theta)
        else Gates.Oneq.rz theta
      in
      let a, b, l = Gates.Oneq.zyz u in
      Mat.equal_up_to_phase ~eps:1e-9 u (Gates.Oneq.u3 a b l))

let () =
  Alcotest.run "gates"
    [
      ( "oneq",
        [
          Alcotest.test_case "unitarity" `Quick test_oneq_unitary;
          Alcotest.test_case "pauli algebra" `Quick test_pauli_algebra;
          Alcotest.test_case "s/t relations" `Quick test_s_t_relations;
          Alcotest.test_case "u3 special" `Quick test_u3_special_cases;
          Alcotest.test_case "rz vs phase" `Quick test_rz_phase_relation;
          Alcotest.test_case "pauli_of_index" `Quick test_pauli_of_index;
        ] );
      ( "twoq",
        [
          Alcotest.test_case "unitarity" `Quick test_twoq_unitary;
          Alcotest.test_case "Table I conventions" `Quick test_table1_conventions;
          Alcotest.test_case "sqrt_iswap^2" `Quick test_sqrt_iswap_squares;
          Alcotest.test_case "cphase composition" `Quick test_cphase_composition;
          Alcotest.test_case "zz definition" `Quick test_zz_definition;
          Alcotest.test_case "zz(pi/4) ~ cz" `Quick test_zz_pi4_is_cz_class;
          Alcotest.test_case "hopping = fsim" `Quick test_hopping_is_fsim;
          Alcotest.test_case "xy ~ fsim family" `Quick test_xy_fsim_equivalence;
          Alcotest.test_case "xy(pi) ~ iswap" `Quick test_xy_pi_is_iswap_class;
          Alcotest.test_case "cnot ~ cz" `Quick test_cnot_cz_class;
          Alcotest.test_case "swap conjugation" `Quick test_swap_conjugation;
        ] );
      ( "gate",
        [
          Alcotest.test_case "arity" `Quick test_gate_arity;
          Alcotest.test_case "validation" `Quick test_gate_validation;
          Alcotest.test_case "su4 validation" `Quick test_gate_su4_validation;
          Alcotest.test_case "u3 allocation" `Quick test_gate_u3_allocation;
        ] );
      ( "gate_type",
        [
          Alcotest.test_case "instantiate" `Quick test_gate_type_instantiate;
          Alcotest.test_case "param counts" `Quick test_gate_type_params;
          Alcotest.test_case "S1-S7 definitions" `Quick test_gate_type_s_defs;
        ] );
      ( "properties",
        [
          prop_fsim_unitary;
          prop_fsim_excitation_preserving;
          prop_gate_names;
          prop_u3_unitary;
          prop_zyz_roundtrip;
          prop_zyz_degenerate;
        ] );
    ]
