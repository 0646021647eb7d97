(* Tests for the decomposition engine: templates, Weyl invariants, NuOp,
   the Cirq-equivalent baseline, the cache and curve persistence, plus
   the properties pinning Weyl, NuOp and persistence against independent
   references. *)

open Linalg

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fast_options = { Decompose.Nuop.default_options with starts = 3 }

(* ---------- Template ---------- *)

let test_template_param_count () =
  let t = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  check_int "fixed" 24 (Decompose.Template.param_count t);
  let tf = Decompose.Template.create Gates.Gate_type.Fsim_family ~layers:3 in
  check_int "fsim family" (24 + 6) (Decompose.Template.param_count tf);
  let tx = Decompose.Template.create Gates.Gate_type.Xy_family ~layers:2 in
  check_int "xy family" (18 + 2) (Decompose.Template.param_count tx)

let test_template_evaluate_unitary () =
  let rng = Rng.create 2 in
  let t = Decompose.Template.create Gates.Gate_type.s1 ~layers:2 in
  for _ = 1 to 5 do
    let params =
      Array.init (Decompose.Template.param_count t) (fun _ ->
          Rng.uniform rng (-.Float.pi) Float.pi)
    in
    check_bool "unitary" true
      (Mat.is_unitary ~eps:1e-9 (Decompose.Template.evaluate t params))
  done

let test_template_zero_layers_local () =
  let t = Decompose.Template.create Gates.Gate_type.s3 ~layers:0 in
  let params = [| 0.3; -0.2; 0.8; 1.0; 0.0; -1.4 |] in
  let u = Decompose.Template.evaluate t params in
  (* a 0-layer template is a tensor product of the two U3s *)
  let expect =
    Mat.kron (Gates.Oneq.u3 0.3 (-0.2) 0.8) (Gates.Oneq.u3 1.0 0.0 (-1.4))
  in
  check_bool "kron" true (Mat.equal ~eps:1e-10 u expect)

let test_template_fidelity_self () =
  (* the template reproduces its own evaluation with fidelity 1 *)
  let t = Decompose.Template.create Gates.Gate_type.s2 ~layers:2 in
  let rng = Rng.create 5 in
  let params =
    Array.init (Decompose.Template.param_count t) (fun _ ->
        Rng.uniform rng (-.Float.pi) Float.pi)
  in
  let target = Mat.copy (Decompose.Template.evaluate t params) in
  Alcotest.(check (float 1e-9)) "fd = 1" 1.0 (Decompose.Template.fidelity t params ~target)

let test_template_family_gate_angles () =
  let ty = Gates.Gate_type.Fsim_family in
  let n = Decompose.Template.dim ty ~layers:2 in
  check_int "dim = param_count"
    (Decompose.Template.param_count (Decompose.Template.create ty ~layers:2))
    n;
  let params = Array.init n float_of_int in
  (* gate angles sit after the 18 single-qubit angles *)
  Alcotest.(check (array (float 0.0))) "layer 1" [| 18.0; 19.0 |]
    (Decompose.Template.gate_angles ty ~layers:2 params 1);
  Alcotest.(check (array (float 0.0))) "layer 2" [| 20.0; 21.0 |]
    (Decompose.Template.gate_angles ty ~layers:2 params 2)

(* The objective BFGS calls tens of thousands of times per decomposition
   must not allocate: [evaluate] and a 4x4 product allocate nothing, and
   [fidelity] may box only its result and the Hilbert-Schmidt sum (a
   boxed-tuple kron once cost 301 words per call here). *)
let test_template_fidelity_allocation () =
  let rng = Rng.create 17 in
  let target = Qr.haar_special_unitary rng 4 in
  List.iter
    (fun gate_type ->
      let t = Decompose.Template.create gate_type ~layers:3 in
      let params =
        Array.init (Decompose.Template.param_count t) (fun _ ->
            Rng.uniform rng (-.Float.pi) Float.pi)
      in
      let name = Gates.Gate_type.name gate_type in
      Alcotest.(check (float 0.0))
        (name ^ ": words per evaluate call")
        0.0
        (Proptest.minor_words_per_call ~n:1000 (fun () ->
             ignore (Sys.opaque_identity (Decompose.Template.evaluate t params))));
      let words =
        Proptest.minor_words_per_call ~n:1000 (fun () ->
            ignore (Sys.opaque_identity (Decompose.Template.fidelity t params ~target)))
      in
      check_bool (Printf.sprintf "%s: %.1f words per fidelity call <= 8" name words) true
        (words <= 8.0))
    [ Gates.Gate_type.s1; Gates.Gate_type.Fsim_family ];
  let a = Qr.haar_unitary rng 4 and b = Qr.haar_unitary rng 4 in
  let dst = Mat.create 4 4 in
  Alcotest.(check (float 0.0))
    "4x4 mul_into words per call" 0.0
    (Proptest.minor_words_per_call ~n:1000 (fun () -> Mat.mul_into ~dst a b))

let bits = Int64.bits_of_float

(* Every fixed type of the paper's sets is zero outside the fSim
   pattern and takes the pattern kernel; CNOT is not, and takes the
   dense one (the gradient property below runs both). *)
let test_template_gate_kernels () =
  List.iter
    (fun ty ->
      check_bool (Gates.Gate_type.name ty ^ " has the fSim pattern") true
        (Mat.has_fsim_pattern (Gates.Gate_type.instantiate ty [||])))
    Gates.Gate_type.[ s1; s2; s3; s4; s5; s6; s7; swap_type; xy_pi ];
  check_bool "CNOT has not" false
    (Mat.has_fsim_pattern (Gates.Gate_type.instantiate Gates.Gate_type.cnot_type [||]))

(* The template's gradient is Grad.central over [infidelity], bit for
   bit, whatever point the workspace last evaluated: on random and on
   converged parameters, at 0 to 6 layers, for pattern-kernel fixed
   types, a dense-kernel type and the three families. *)
let test_template_gradient_bits () =
  let rng = Rng.create 25 in
  let h = Decompose.Nuop.default_options.bfgs.fd_step in
  List.iter
    (fun ty ->
      for layers = 0 to 6 do
        let t = Decompose.Template.create ty ~layers in
        let n = Decompose.Template.param_count t in
        let xp = Array.make n 0.0 and want = Array.make n 0.0 in
        let got = Array.make n 0.0 in
        for case = 0 to 2 do
          let x = Array.init n (fun _ -> Rng.uniform rng (-.Float.pi) Float.pi) in
          let target =
            if case = 2 then Mat.copy (Decompose.Template.evaluate t x)
            else Qr.haar_special_unitary rng 4
          in
          let f p = Decompose.Template.infidelity t p ~target in
          Optimize.Grad.central ~h f x ~g:want ~xp;
          Decompose.Template.gradient t ~h x ~target ~g:got;
          Array.iteri
            (fun i w ->
              if bits w <> bits got.(i) then
                Alcotest.failf
                  "%s, %d layers, case %d: gradient entry %d is %h, Grad.central's %h"
                  (Gates.Gate_type.name ty) layers case i got.(i) w)
            want
        done
      done)
    Gates.Gate_type.
      [ s1; s3; s7; swap_type; cnot_type; Fsim_family; Xy_family; Cphase_family ]

(* ---------- Weyl ---------- *)

let test_weyl_known_counts () =
  check_int "identity" 0 (Decompose.Weyl.cnot_count (Mat.identity 4));
  check_int "cnot" 1 (Decompose.Weyl.cnot_count Gates.Twoq.cnot);
  check_int "cz" 1 (Decompose.Weyl.cnot_count Gates.Twoq.cz);
  check_int "iswap" 2 (Decompose.Weyl.cnot_count Gates.Twoq.iswap);
  check_int "swap" 3 (Decompose.Weyl.cnot_count Gates.Twoq.swap);
  check_int "zz" 2 (Decompose.Weyl.cnot_count (Gates.Twoq.zz 0.3));
  check_int "sqrt_iswap" 2 (Decompose.Weyl.cnot_count Gates.Twoq.sqrt_iswap)

let test_weyl_local_gates () =
  let rng = Rng.create 8 in
  for _ = 1 to 5 do
    let local = Mat.kron (Qr.haar_unitary rng 2) (Qr.haar_unitary rng 2) in
    check_int "local = 0" 0 (Decompose.Weyl.cnot_count local);
    check_bool "is_local" true (Decompose.Weyl.is_local local)
  done

let test_weyl_random_su4 () =
  let rng = Rng.create 9 in
  (* generic unitaries need 3 *)
  let counts = List.init 8 (fun _ -> Decompose.Weyl.cnot_count (Qr.haar_unitary rng 4)) in
  check_bool "all 3" true (List.for_all (fun c -> c = 3) counts)

let test_makhlin_local_invariance () =
  let rng = Rng.create 10 in
  let u = Qr.haar_unitary rng 4 in
  let l1 = Mat.kron (Qr.haar_unitary rng 2) (Qr.haar_unitary rng 2) in
  let l2 = Mat.kron (Qr.haar_unitary rng 2) (Qr.haar_unitary rng 2) in
  let dressed = Mat.mul l1 (Mat.mul u l2) in
  check_bool "invariant" true (Decompose.Weyl.locally_equivalent u dressed)

let test_makhlin_identity_values () =
  let g1, g2 = Decompose.Weyl.makhlin_invariants (Mat.identity 4) in
  check_bool "G1 = 1" true (Cplx.equal ~eps:1e-9 g1 Cplx.one);
  Alcotest.(check (float 1e-9)) "G2 = 3" 3.0 g2

let test_makhlin_cnot_values () =
  let g1, g2 = Decompose.Weyl.makhlin_invariants Gates.Twoq.cnot in
  check_bool "G1 = 0" true (Cplx.norm g1 < 1e-9);
  Alcotest.(check (float 1e-9)) "G2 = 1" 1.0 g2

let test_weyl_coordinates_known () =
  let close3 (a1, a2, a3) (b1, b2, b3) =
    Float.abs (a1 -. b1) < 1e-5 && Float.abs (a2 -. b2) < 1e-5
    && Float.abs (Float.abs a3 -. Float.abs b3) < 1e-5
  in
  let q = Float.pi /. 4.0 in
  check_bool "identity" true (close3 (Decompose.Weyl.coordinates (Mat.identity 4)) (0.0, 0.0, 0.0));
  check_bool "cnot" true (close3 (Decompose.Weyl.coordinates Gates.Twoq.cnot) (q, 0.0, 0.0));
  check_bool "iswap" true (close3 (Decompose.Weyl.coordinates Gates.Twoq.iswap) (q, q, 0.0));
  check_bool "swap" true (close3 (Decompose.Weyl.coordinates Gates.Twoq.swap) (q, q, q));
  check_bool "sqrt_iswap" true
    (close3 (Decompose.Weyl.coordinates Gates.Twoq.sqrt_iswap) (q /. 2.0, q /. 2.0, 0.0))

let test_weyl_coordinates_roundtrip () =
  let rng = Rng.create 42 in
  for _ = 1 to 5 do
    let u = Qr.haar_special_unitary rng 4 in
    let c1, c2, c3 = Decompose.Weyl.coordinates u in
    check_bool "verified class" true
      (Decompose.Weyl.locally_equivalent ~eps:1e-5 (Decompose.Weyl.canonical_gate c1 c2 c3) u);
    check_bool "ordering" true (c1 >= c2 && c2 >= Float.abs c3 -. 1e-9)
  done

let test_weyl_canonical_gate_unitary () =
  check_bool "unitary" true
    (Mat.is_unitary ~eps:1e-10 (Decompose.Weyl.canonical_gate 0.3 0.2 0.1))

let test_weyl_distinguishes () =
  check_bool "cz vs iswap" false
    (Decompose.Weyl.locally_equivalent Gates.Twoq.cz Gates.Twoq.iswap)

(* ---------- NuOp exact ---------- *)

let test_nuop_su4_counts () =
  let rng = Rng.create 12 in
  let u = Qr.haar_special_unitary rng 4 in
  let d = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  check_int "3 CZ" 3 d.Decompose.Nuop.layers;
  check_bool "fd ~ 1" true (d.Decompose.Nuop.fd > 1.0 -. 1e-6)

let test_nuop_zz_two_cz () =
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3
      ~target:(Gates.Twoq.zz 0.7)
  in
  check_int "2 CZ" 2 d.Decompose.Nuop.layers

let test_nuop_cz_self () =
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3
      ~target:Gates.Twoq.cz
  in
  check_int "1 CZ" 1 d.Decompose.Nuop.layers

let test_nuop_swap_native () =
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.swap_type
      ~target:Gates.Twoq.swap
  in
  check_int "1 SWAP" 1 d.Decompose.Nuop.layers

let test_nuop_swap_needs_three_cz () =
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3
      ~target:Gates.Twoq.swap
  in
  check_int "3 CZ" 3 d.Decompose.Nuop.layers

let test_nuop_local_zero_layers () =
  (* with min_layers = 0 a local unitary costs no two-qubit gates; the
     paper's default (min_layers = 1) never elides gates *)
  let rng = Rng.create 13 in
  let local = Mat.kron (Qr.haar_unitary rng 2) (Qr.haar_unitary rng 2) in
  let d =
    Decompose.Nuop.decompose_exact
      ~options:{ fast_options with min_layers = 0 }
      Gates.Gate_type.s3 ~target:local
  in
  check_int "0 layers" 0 d.Decompose.Nuop.layers;
  let d1 = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:local in
  check_bool "default never elides" true (d1.Decompose.Nuop.layers >= 1)

let test_nuop_implemented_unitary_matches () =
  let rng = Rng.create 14 in
  let u = Qr.haar_special_unitary rng 4 in
  let d = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s2 ~target:u in
  let impl = Decompose.Nuop.implemented_unitary d in
  check_bool "matches up to phase" true (Mat.equal_up_to_phase ~eps:1e-4 impl u)

let test_nuop_full_family_two_layers () =
  let rng = Rng.create 15 in
  let u = Qr.haar_special_unitary rng 4 in
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.Fsim_family
      ~target:u
  in
  check_bool "<= 2 layers" true (d.Decompose.Nuop.layers <= 2);
  check_bool "fd ~ 1" true (d.Decompose.Nuop.fd > 1.0 -. 1e-5)

let test_nuop_near_identity () =
  (* tiny controlled-phase: identity basin must be found *)
  let d =
    Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3
      ~target:(Gates.Twoq.cphase (Float.pi /. 512.0))
  in
  check_bool "<= 2 layers" true (d.Decompose.Nuop.layers <= 2)

(* ---------- NuOp circuit emission ---------- *)

let test_nuop_to_circuit_structure () =
  let rng = Rng.create 16 in
  let u = Qr.haar_special_unitary rng 4 in
  let d = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let c = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
  check_int "2q count" d.Decompose.Nuop.layers (Qcir.Circuit.two_qubit_count c);
  check_int "1q count" (2 * (d.Decompose.Nuop.layers + 1)) (Qcir.Circuit.one_qubit_count c)

let test_nuop_circuit_simulates_to_target () =
  (* run the emitted circuit through the state-vector simulator and check
     the state matches the target unitary applied to |00> *)
  let rng = Rng.create 17 in
  let u = Qr.haar_special_unitary rng 4 in
  let d = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let c = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(0, 1) in
  let s = Sim.State.run_circuit c in
  let expect = Sim.State.create 2 in
  Sim.State.apply_matrix expect u [| 0; 1 |];
  Alcotest.(check (float 1e-6)) "state fidelity" 1.0 (Sim.State.fidelity_pure s expect)

(* ---------- NuOp approximate ---------- *)

let test_approx_trades_layers () =
  let rng = Rng.create 18 in
  let u = Qr.haar_special_unitary rng 4 in
  (* severe hardware error: fewer layers should win *)
  let fh layers = 0.90 ** float_of_int layers in
  let d = Decompose.Nuop.decompose_approx ~options:fast_options ~fh Gates.Gate_type.s3 ~target:u in
  let exact = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  check_bool "fewer or equal layers" true
    (d.Decompose.Nuop.layers <= exact.Decompose.Nuop.layers);
  check_bool "better overall" true
    (Decompose.Nuop.overall_fidelity d
    >= (exact.Decompose.Nuop.fd *. fh exact.Decompose.Nuop.layers) -. 1e-9)

let test_approx_perfect_hardware_is_exact () =
  let rng = Rng.create 19 in
  let u = Qr.haar_special_unitary rng 4 in
  let d =
    Decompose.Nuop.decompose_approx ~options:fast_options
      ~fh:(fun _ -> 1.0)
      Gates.Gate_type.s3 ~target:u
  in
  check_bool "fd ~ 1" true (d.Decompose.Nuop.fd > 1.0 -. 1e-6)

let test_select_best () =
  let mk fd fh = { Decompose.Nuop.gate_type = Gates.Gate_type.s3; layers = 1; params = [||]; fd; fh } in
  let best = Decompose.Nuop.select_best [ mk 0.9 0.9; mk 0.99 0.9; mk 0.9 0.5 ] in
  Alcotest.(check (float 1e-12)) "picks max fu" (0.99 *. 0.9)
    (Decompose.Nuop.overall_fidelity best);
  Alcotest.check_raises "empty" (Invalid_argument "Nuop.select_best: no candidates")
    (fun () -> ignore (Decompose.Nuop.select_best []))

(* ---------- fd curves & cache ---------- *)

let test_fd_curve_monotone () =
  let rng = Rng.create 20 in
  let u = Qr.haar_special_unitary rng 4 in
  let curve = Decompose.Nuop.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let fds = Array.map (fun (_, _, fd) -> fd) curve in
  for i = 1 to Array.length fds - 1 do
    check_bool "non-decreasing (within tolerance)" true (fds.(i) >= fds.(i - 1) -. 0.02)
  done;
  check_bool "converges" true (fds.(Array.length fds - 1) > 1.0 -. 1e-6)

(* NuOp's fit without the template gradient: the same multistart over
   Bfgs.minimize with its default Grad.central over Template.infidelity.
   Returns the curve and the BFGS result of every start its scans used. *)
let reference_fd_curve (options : Decompose.Nuop.options) ty ~target =
  let used = ref [] in
  let fit layers =
    let dim = Decompose.Template.dim ty ~layers in
    let bfgs = { options.bfgs with f_tol = 1.0 -. options.convergence_fd } in
    let run =
      Optimize.Multistart.run_parallel ~first_start:(Array.make dim 0.1)
        ~rng:(Rng.create (options.seed + (1000 * layers)))
        ~starts:options.starts ~dim ~lo:(-.Float.pi) ~hi:Float.pi
        ~target:(1.0 -. options.convergence_fd)
        ~optimize:(fun x0 ->
          let t = Decompose.Template.create ty ~layers in
          Optimize.Bfgs.minimize ~options:bfgs
            (fun p -> Decompose.Template.infidelity t p ~target)
            x0)
        ~value:(fun (r : Optimize.Bfgs.result) ->
          used := r :: !used;
          r.f)
        ()
    in
    (run.best.x, 1.0 -. run.best.f)
  in
  let rec grow layers acc =
    if layers > options.max_layers then List.rev acc
    else begin
      let params, fd = fit layers in
      let acc = (layers, params, fd) :: acc in
      if fd >= options.convergence_fd then List.rev acc else grow (layers + 1) acc
    end
  in
  let curve = Array.of_list (grow options.min_layers []) in
  (curve, List.rev !used)

let same_curve a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (la, pa, fa) (lb, pb, fb) ->
         la = lb && Array.map bits pa = Array.map bits pb && bits fa = bits fb)
       a b

let seeded_targets () =
  let rng = Rng.create 41 in
  [
    ("QV", List.hd (Apps.Su4_unitaries.qv_set rng ~count:1));
    ("QAOA", List.hd (Apps.Su4_unitaries.qaoa_set rng ~count:1));
    ("SWAP", List.hd (Apps.Su4_unitaries.swap_set ()));
  ]

(* NuOp's curves are the reference's bit for bit with the quick-scale
   options, for converging, capped and family types. *)
let test_fd_curve_matches_reference () =
  let options = Core.Config.quick.Core.Config.nuop in
  List.iter
    (fun (app, target) ->
      List.iter
        (fun ty ->
          let want, _ = reference_fd_curve options ty ~target in
          check_bool
            (Printf.sprintf "%s on %s" (Gates.Gate_type.name ty) app)
            true
            (same_curve want (Decompose.Nuop.fd_curve ~options ty ~target)))
        Gates.Gate_type.[ s1; s3; swap_type; Fsim_family; Xy_family; Cphase_family ])
    (seeded_targets ())

(* One cold curve moves the NuOp work counters by the counts of the
   BFGS results its scans used. *)
let test_nuop_counters () =
  let options = Core.Config.quick.Core.Config.nuop in
  let _, target = List.hd (seeded_targets ()) in
  let ty = Gates.Gate_type.s3 in
  let _, used = reference_fd_curve options ty ~target in
  let names =
    [ "decompose.nuop.curves"; "decompose.nuop.fits"; "decompose.nuop.gradients";
      "decompose.nuop.bfgs_iterations" ]
  in
  let read () = List.map (fun name -> Obs.Counter.get (Obs.Counter.create name)) names in
  let before = read () in
  ignore (Decompose.Nuop.fd_curve ~options ty ~target);
  let moved = List.map2 ( - ) (read ()) before in
  let sum field = List.fold_left (fun acc r -> acc + field r) 0 used in
  Alcotest.(check (list int))
    "curves, fits, gradients, iterations"
    [
      1;
      List.length used;
      sum (fun (r : Optimize.Bfgs.result) -> r.gradients);
      sum (fun (r : Optimize.Bfgs.result) -> r.iterations);
    ]
    moved;
  check_bool "several fits" true (List.length used > 1)

let test_cache_hit () =
  Decompose.Cache.clear ();
  let rng = Rng.create 21 in
  let u = Qr.haar_special_unitary rng 4 in
  let _ = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let size1 = Decompose.Cache.size () in
  let _ = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  check_int "no growth on hit" size1 (Decompose.Cache.size ());
  let _ = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s2 ~target:u in
  check_int "grows on new type" (size1 + 1) (Decompose.Cache.size ())

let test_cache_key_pinned () =
  (* curve snapshots (nuop-curves/1, NUOP_CACHE_FILE) are keyed by these
     bytes: a key that drifts turns every saved curve into a miss *)
  Alcotest.(check string)
    "SWAP / SYC key"
    "5a3245022e13c5ad27191ac872034375|SYC|1-6|s4|r7|cv0.99999998999999995|b120;9.9999999999999995e-08;1e-10;9.9999999999999998e-13;9.9999999999999995e-08"
    (Decompose.Cache.make_key ~target:Gates.Twoq.swap ~gate_type:Gates.Gate_type.s1
       ~options:Decompose.Nuop.default_options)

(* The key as it was formatted before its parts were built apart: one
   Printf call over the whole options record on every lookup. *)
let printf_key ~target ~gate_type ~(options : Decompose.Nuop.options) =
  let b = options.bfgs in
  Printf.sprintf "%s|%s|%d-%d|s%d|r%d|cv%.17g|b%d;%.17g;%.17g;%.17g;%.17g"
    (Digest.to_hex (Mat.digest target))
    (Gates.Gate_type.name gate_type)
    options.min_layers options.max_layers options.starts options.seed options.convergence_fd
    b.Optimize.Bfgs.max_iter b.Optimize.Bfgs.grad_tol b.Optimize.Bfgs.f_tol
    b.Optimize.Bfgs.step_tol b.Optimize.Bfgs.fd_step

let test_cache_key_parts () =
  (* every options field lands in its place of the key *)
  let rng = Rng.create 31 in
  List.iteri
    (fun i x ->
      let options =
        { fast_options with
          Decompose.Nuop.convergence_fd = x;
          seed = i - 3;
          max_layers = 100 * i;
          bfgs = { fast_options.bfgs with Optimize.Bfgs.grad_tol = x /. 7.0; max_iter = i };
        }
      in
      let target = Qr.haar_special_unitary rng 4 and gate_type = Gates.Gate_type.s3 in
      Alcotest.(check string)
        (Printf.sprintf "options %d" i)
        (printf_key ~target ~gate_type ~options)
        (Decompose.Cache.make_key ~target ~gate_type ~options))
    [ 0.0; -0.0; 1.0 /. 3.0; 1e22; infinity; nan ];
  (* a lookup on parts built beforehand finds fd_curve's entry *)
  Decompose.Cache.clear ();
  let u = Qr.haar_special_unitary rng 4 in
  let cold = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let warm =
    Decompose.Cache.curve
      (Decompose.Cache.options_key fast_options)
      Gates.Gate_type.s3 (Decompose.Cache.target_key u)
  in
  check_bool "same curve" true (cold == warm);
  check_bool "one miss, one hit" true (Decompose.Cache.stats () = (1, 1))

let test_cache_stats_concurrent () =
  (* hammer the cache from the Domain pool: every lookup is counted
     exactly once, and the table converges to one entry per distinct key *)
  Decompose.Cache.clear ();
  let rng = Rng.create 23 in
  let us = List.init 4 (fun _ -> Qr.haar_special_unitary rng 4) in
  let lookups =
    List.concat_map (fun u -> List.init 6 (fun _ -> u)) us
  in
  let _ =
    Concurrent.Domain_pool.map ~domains:4
      (fun u ->
        Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u)
      lookups
  in
  let hits, misses = Decompose.Cache.stats () in
  check_int "every lookup counted" (List.length lookups) (hits + misses);
  check_int "one entry per key" (List.length us) (Decompose.Cache.size ());
  check_bool "at least one hit per key" true (hits >= List.length us)

let test_cache_modes_consistent () =
  Decompose.Cache.clear ();
  let rng = Rng.create 22 in
  let u = Qr.haar_special_unitary rng 4 in
  let direct = Decompose.Nuop.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let cached = Decompose.Cache.decompose_exact ~options:fast_options Gates.Gate_type.s3 ~target:u in
  check_int "same layers" direct.Decompose.Nuop.layers cached.Decompose.Nuop.layers

(* regression: two fd_curve calls differing only in optimizer options
   (here [starts]) must not alias to one entry — a shared curve would
   silently corrupt any sweep over optimizer settings *)
let test_cache_keys_include_options () =
  Decompose.Cache.clear ();
  let rng = Rng.create 25 in
  let u = Qr.haar_special_unitary rng 4 in
  let _ = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  let _ =
    Decompose.Cache.fd_curve
      ~options:{ fast_options with Decompose.Nuop.starts = fast_options.Decompose.Nuop.starts + 2 }
      Gates.Gate_type.s3 ~target:u
  in
  let hits, misses = Decompose.Cache.stats () in
  check_int "both calls miss" 2 misses;
  check_int "no aliased hit" 0 hits;
  check_int "two distinct entries" 2 (Decompose.Cache.size ())

let with_capacity cap f =
  Decompose.Cache.clear ();
  let old_cap = Decompose.Cache.capacity () in
  Decompose.Cache.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Decompose.Cache.set_capacity old_cap;
      Decompose.Cache.clear ())
    f

let test_cache_eviction_keeps_newest () =
  with_capacity 8 (fun () ->
      let rng = Rng.create 26 in
      let us = Array.init 9 (fun _ -> Qr.haar_special_unitary rng 4) in
      Array.iter
        (fun u ->
          ignore (Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u))
        us;
      (* the 9th insert evicted the LRU half, then added itself *)
      check_int "evicted to half + newest" 5 (Decompose.Cache.size ());
      let h0, _ = Decompose.Cache.stats () in
      for i = 4 to 8 do
        ignore (Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:us.(i))
      done;
      let h1, _ = Decompose.Cache.stats () in
      check_int "the most recent entries all survived" 5 (h1 - h0))

let test_cache_concurrent_fill_past_cap () =
  (* fill well past the cap from several domains at once: eviction only
     ever drops the LRU half, so it cannot wipe entries other domains
     just inserted; lookups stay correct and the counters consistent *)
  with_capacity 8 (fun () ->
      let rng = Rng.create 27 in
      let us = List.init 10 (fun _ -> Qr.haar_special_unitary rng 4) in
      let curves =
        Concurrent.Domain_pool.map ~domains:4
          (fun u ->
            (u, Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u))
          us
      in
      check_bool "size stays bounded" true (Decompose.Cache.size () <= 8);
      let hits, misses = Decompose.Cache.stats () in
      check_int "every lookup counted" (List.length us) (hits + misses);
      (* the engine is deterministic, so every returned curve must match
         an uncached recomputation exactly *)
      List.iteri
        (fun i (u, curve) ->
          if i < 4 then begin
            let direct =
              Decompose.Nuop.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u
            in
            check_int "curve layers" (Array.length direct) (Array.length curve);
            Array.iteri
              (fun k (_, _, fd) ->
                let _, _, fd' = curve.(k) in
                check_bool "same fd" true (Float.abs (fd -. fd') < 1e-12))
              direct
          end)
        curves)

let test_cache_clear_resets_counters () =
  (* regression: clear used to reset the hit/miss atomics outside the
     table mutex, so a concurrent lookup could observe an empty table
     with stale counters; it now swaps both under the same lock *)
  Decompose.Cache.clear ();
  let rng = Rng.create 29 in
  let u = Qr.haar_special_unitary rng 4 in
  ignore (Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u);
  ignore (Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u);
  check_bool "warmed up" true (Decompose.Cache.stats () <> (0, 0));
  Decompose.Cache.clear ();
  check_int "size reset" 0 (Decompose.Cache.size ());
  let h, m = Decompose.Cache.stats () in
  check_int "hits reset" 0 h;
  check_int "misses reset" 0 m;
  check_int "warm hits reset" 0 (Decompose.Cache.warm_hits ());
  (* the previously cached key must now miss, not hit *)
  ignore (Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u);
  check_int "old key misses after clear" 1 (snd (Decompose.Cache.stats ()));
  check_int "no stale hits" 0 (fst (Decompose.Cache.stats ()));
  Decompose.Cache.clear ()

(* tiny synthetic curves: persistence and eviction don't care where a
   curve came from, so tests of those paths need not pay for real
   optimizations *)
let synthetic_key i = Printf.sprintf "k%d|synthetic" i

let synthetic_entry i =
  (synthetic_key i, [| (1, [| float_of_int i |], 0.5 +. (float_of_int i *. 1e-6)) |])

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let survivors () =
  Proptest.with_temp_file (fun file ->
      ignore (Decompose.Cache.save_to_file file);
      match Decompose.Persist.load file with
      | Ok entries -> List.map fst entries
      | Error e -> Alcotest.fail e)

let test_cache_eviction_survivor_set () =
  (* deterministic check of the LRU cutoff: inserting k0..k63 in
     order at capacity 32 evicts down to 16 exactly twice (at the 33rd
     and 49th inserts), so the survivors are exactly {k32..k63} *)
  with_capacity 32 (fun () ->
      for i = 0 to 63 do
        check_int "fresh key merges" 1
          (Decompose.Cache.merge_entries [ synthetic_entry i ])
      done;
      check_int "table at capacity" 32 (Decompose.Cache.size ());
      let expect = List.init 32 (fun i -> synthetic_key (32 + i)) in
      let got = List.sort compare (survivors ()) in
      Alcotest.(check (list string)) "newest 32 survive" (List.sort compare expect) got)

let test_cache_insert_cost_bounded () =
  (* regression: eviction used to sort the whole table on every insert
     past capacity; evicting down to half the cap keeps sustained inserts
     cheap.  5000 synthetic inserts at capacity 256 finish comfortably
     inside a very generous wall-time budget even on loaded CI machines *)
  with_capacity 256 (fun () ->
      let t0 = Sys.time () in
      for i = 0 to 4999 do
        ignore (Decompose.Cache.merge_entries [ synthetic_entry i ])
      done;
      let elapsed = Sys.time () -. t0 in
      check_bool
        (Printf.sprintf "5000 inserts bounded (%.3fs)" elapsed)
        true (elapsed < 5.0);
      let size = Decompose.Cache.size () in
      check_bool "size stays within the eviction band" true (size > 0 && size <= 256))

(* ---------- persistence ---------- *)

let test_persist_roundtrip_real_curve () =
  Decompose.Cache.clear ();
  let rng = Rng.create 30 in
  let u = Qr.haar_special_unitary rng 4 in
  let cold = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
  Proptest.with_temp_file (fun file ->
      check_int "one curve saved" 1 (Decompose.Cache.save_to_file file);
      Decompose.Cache.clear ();
      check_int "one curve loaded" 1 (Decompose.Cache.load_from_file file);
      check_int "loaded entries are warm" 1 (Decompose.Cache.warm_count ());
      let h0 = fst (Decompose.Cache.stats ()) in
      let warm = Decompose.Cache.fd_curve ~options:fast_options Gates.Gate_type.s3 ~target:u in
      check_int "lookup is a hit" (h0 + 1) (fst (Decompose.Cache.stats ()));
      check_bool "hit attributed as warm" true (Decompose.Cache.warm_hits () > 0);
      check_bool "curve identical" true (cold = warm));
  Decompose.Cache.clear ()

let test_persist_adversarial_loads () =
  (* every flavour of broken file loads as a clean error — and through
     Cache.load_from_file as a warning plus zero warm entries — never an
     escaping exception *)
  let expect_rejected name content =
    Proptest.with_temp_file (fun file ->
        write_file file content;
        (match Decompose.Persist.load file with
        | Ok _ -> Alcotest.fail (name ^ ": corrupt file parsed as Ok")
        | Error reason -> check_bool (name ^ " has a reason") true (String.length reason > 0));
        Decompose.Cache.clear ();
        check_int (name ^ " loads zero entries") 0 (Decompose.Cache.load_from_file file);
        check_int (name ^ " leaves cache empty") 0 (Decompose.Cache.size ()))
  in
  (* a genuine snapshot, truncated at every interesting boundary *)
  Proptest.with_temp_file (fun file ->
      Decompose.Persist.save file [ synthetic_entry 0; synthetic_entry 1 ];
      let full = In_channel.with_open_bin file In_channel.input_all in
      List.iter
        (fun frac ->
          let cut = int_of_float (frac *. float_of_int (String.length full)) in
          expect_rejected
            (Printf.sprintf "truncated at %d/%d" cut (String.length full))
            (String.sub full 0 cut))
        [ 0.25; 0.5; 0.9 ]);
  expect_rejected "wrong schema" {|{"schema": "nuop-curves/999", "entries": []}|};
  expect_rejected "garbage bytes" "\x00\xffnot json at all{[";
  expect_rejected "empty file" "";
  expect_rejected "valid json, wrong shape" {|[1, 2, 3]|};
  (* missing file: same contract, no exception *)
  (match Decompose.Persist.load "/nonexistent/nuop-no-such-file.json" with
  | Ok _ -> Alcotest.fail "missing file parsed as Ok"
  | Error _ -> ());
  check_int "missing file loads zero" 0
    (Decompose.Cache.load_from_file "/nonexistent/nuop-no-such-file.json")

let test_persist_merge_prefers_memory () =
  Decompose.Cache.clear ();
  let key = synthetic_key 7 in
  let mem = [| (2, [| 1.0; 2.0 |], 0.75) |] in
  let disk = [| (9, [| -1.0 |], 0.125) |] in
  Proptest.with_temp_file (fun file ->
      Decompose.Persist.save file [ (key, disk) ];
      check_int "memory entry inserted" 1 (Decompose.Cache.merge_entries [ (key, mem) ]);
      check_int "disk duplicate skipped" 0 (Decompose.Cache.load_from_file file);
      let saved = survivors () in
      check_int "still one entry" 1 (List.length saved));
  Proptest.with_temp_file (fun file ->
      ignore (Decompose.Cache.save_to_file file);
      match Decompose.Persist.load file with
      | Ok [ (k, c) ] ->
        check_bool "key kept" true (k = key);
        check_bool "in-memory curve kept" true (c = mem)
      | Ok _ | Error _ -> Alcotest.fail "expected exactly the in-memory entry");
  Decompose.Cache.clear ()

let test_validate_env_file () =
  (match Decompose.Cache.validate_env_file "" with
  | Error _ -> ()
  | Ok v -> Alcotest.fail ("blank accepted as " ^ v));
  (match Decompose.Cache.validate_env_file "   " with
  | Error _ -> ()
  | Ok v -> Alcotest.fail ("whitespace accepted as " ^ v));
  match Decompose.Cache.validate_env_file "  /tmp/curves.json " with
  | Ok v -> Alcotest.(check string) "trimmed" "/tmp/curves.json" v
  | Error e -> Alcotest.fail e

let test_parse_pool_size () =
  let module P = Concurrent.Domain_pool in
  (match P.parse_pool_size "8" with
  | Ok n -> check_int "plain" 8 n
  | Error e -> Alcotest.fail e);
  (match P.parse_pool_size " 4\n" with
  | Ok n -> check_int "whitespace tolerated" 4 n
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match P.parse_pool_size bad with
      | Ok n -> Alcotest.fail (Printf.sprintf "%S accepted as %d" bad n)
      | Error reason -> check_bool (bad ^ " has a reason") true (String.length reason > 0))
    [ "eight"; "0"; "-2"; ""; "3.5" ]

(* ---------- Cirq-like baseline ---------- *)

let test_cirq_counts () =
  let rng = Rng.create 23 in
  let u = Qr.haar_special_unitary rng 4 in
  let count ty =
    match Decompose.Cirq_like.decompose ~target_gate:ty u with
    | Some r -> r.Decompose.Cirq_like.gate_count
    | None -> -1
  in
  check_int "3 CZ" 3 (count Gates.Gate_type.s3);
  check_int "6 SYC" 6 (count Gates.Gate_type.s1);
  check_int "4 iSWAP" 4 (count Gates.Gate_type.s4);
  check_int "sqrt_iswap unsupported" (-1) (count Gates.Gate_type.s2)

let test_cirq_zz () =
  let zz = Gates.Twoq.zz 0.4 in
  let count ty = (Option.get (Decompose.Cirq_like.decompose ~target_gate:ty zz)).Decompose.Cirq_like.gate_count in
  check_int "2 CZ" 2 (count Gates.Gate_type.s3);
  check_int "4 SYC" 4 (count Gates.Gate_type.s1);
  check_int "2 sqrt_iswap" 2 (count Gates.Gate_type.s2)

let test_cirq_local () =
  let rng = Rng.create 24 in
  let local = Mat.kron (Qr.haar_unitary rng 2) (Qr.haar_unitary rng 2) in
  let r = Option.get (Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 local) in
  check_int "0 gates" 0 r.Decompose.Cirq_like.gate_count

(* ---------- properties: Weyl invariants, NuOp against KAK and the
   Cirq-like baseline, curve persistence ---------- *)

module G = Proptest.Gen

let arb = Proptest.arbitrary
let pm = Mat.to_string
let pm2 (a, b) = Printf.sprintf "A =\n%s\nB =\n%s" (pm a) (pm b)
let close ~eps x y = Float.abs (x -. y) <= eps

(* (u, u dressed with single-qubit gates on both sides) *)
let dressed rng =
  let u = G.su4 rng in
  let a = G.su2 rng and b = G.su2 rng in
  let c = G.su2 rng and d = G.su2 rng in
  (u, Mat.mul (Mat.kron a b) (Mat.mul u (Mat.kron c d)))

let coords3 u =
  let c1, c2, c3 = Decompose.Weyl.coordinates u in
  (c1, c2, Float.abs c3)

let weyl_properties =
  [
    Proptest.test "coordinates are canonically ordered" ~count:12
      (arb ~print:pm G.su4)
      (fun u ->
        let c1, c2, c3 = Decompose.Weyl.coordinates u in
        c1 >= c2 -. 1e-9
        && c2 >= Float.abs c3 -. 1e-9
        && c1 <= (Float.pi /. 2.0) +. 1e-9);
    Proptest.test "canonical gate represents the class" ~count:8
      (arb ~print:pm G.su4)
      (fun u ->
        let c1, c2, c3 = Decompose.Weyl.coordinates u in
        Decompose.Weyl.locally_equivalent u (Decompose.Weyl.canonical_gate c1 c2 c3));
    Proptest.test "coordinates survive local dressing" ~count:8
      (arb ~print:pm2 dressed)
      (fun (u, v) ->
        let a1, a2, a3 = coords3 u and b1, b2, b3 = coords3 v in
        close ~eps:1e-6 a1 b1 && close ~eps:1e-6 a2 b2 && close ~eps:1e-6 a3 b3);
    Proptest.test "cnot_count is in 0..3 and dressing-invariant" ~count:8
      (arb ~print:pm2 dressed)
      (fun (u, v) ->
        let ku = Decompose.Weyl.cnot_count u in
        ku >= 0 && ku <= 3 && ku = Decompose.Weyl.cnot_count v);
    Proptest.test "local unitaries need zero CNOTs" ~count:10
      (arb ~print:pm G.local_su4)
      (fun u -> Decompose.Weyl.is_local u && Decompose.Weyl.cnot_count u = 0);
  ]

(* F_d recomputed from scratch: the unitary the parameters implement
   against the target, through hs_inner *)
let fidelity_of u target = Complex.norm (Mat.hs_inner u target) /. 4.0

(* L_i G_i ... G_1 L_0 as explicit matrices: each local layer from
   Oneq.u3 and Mat.kron, each gate from Gate_type.instantiate at the
   angles stored after the 6(i+1) single-qubit ones *)
let template_reference gate_type ~layers params =
  let pc = Gates.Gate_type.param_count gate_type in
  let local k =
    let p j = params.((6 * k) + j) in
    Mat.kron (Gates.Oneq.u3 (p 0) (p 1) (p 2)) (Gates.Oneq.u3 (p 3) (p 4) (p 5))
  in
  let u = ref (local 0) in
  for k = 1 to layers do
    let angles = Array.sub params ((6 * (layers + 1)) + ((k - 1) * pc)) pc in
    u := Mat.mul (local k) (Mat.mul (Gates.Gate_type.instantiate gate_type angles) !u)
  done;
  !u

let decompose_properties =
  [
    Proptest.test "nuop curve fidelities match the implemented unitary" ~count:3
      (arb
         ~print:(fun (gt, u) -> Gates.Gate_type.name gt ^ " on\n" ^ pm u)
         (G.pair G.fixed_gate_type G.su4))
      (fun (gate_type, target) ->
        let curve = Decompose.Nuop.fd_curve ~options:Proptest.fast_nuop gate_type ~target in
        Array.for_all
          (fun (layers, params, fd) ->
            let d = { Decompose.Nuop.gate_type; layers; params; fd; fh = 1.0 } in
            let recomputed =
              fidelity_of (Decompose.Nuop.implemented_unitary d) target
            in
            fd >= -1e-9 && fd <= 1.0 +. 1e-9 && close ~eps:1e-6 fd recomputed)
          curve);
    Proptest.test "nuop never beats the SBM lower bound" ~count:4
      (arb ~print:pm G.su4)
      (fun u ->
        let bound = Decompose.Weyl.cnot_count u in
        let d =
          Decompose.Nuop.decompose_exact ~options:Proptest.fast_nuop ~threshold:(1.0 -. 1e-7)
            Gates.Gate_type.s3 ~target:u
        in
        (* only trust the comparison when the optimizer converged *)
        d.Decompose.Nuop.fd < 1.0 -. 1e-7 || d.Decompose.Nuop.layers >= bound);
    Proptest.test "cirq-like CZ count equals the weyl bound" ~count:6
      (arb ~print:pm G.su4)
      (fun u ->
        match Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 u with
        | None -> false
        | Some r ->
          r.Decompose.Cirq_like.gate_count = Decompose.Weyl.cnot_count u
          && r.Decompose.Cirq_like.decomposition_error <= Decompose.Cirq_like.kak_error);
    (* differential agreement on one-gate-expressible targets: weyl,
       the cirq baseline and nuop must all certify a single layer *)
    Proptest.test "one-CZ targets: weyl, cirq and nuop agree" ~count:3
      (arb ~print:pm
         (fun rng ->
           let cz = Gates.Gate_type.instantiate Gates.Gate_type.s3 [||] in
           let a = G.su2 rng and b = G.su2 rng in
           let c = G.su2 rng and d = G.su2 rng in
           Mat.mul (Mat.kron a b) (Mat.mul cz (Mat.kron c d))))
      (fun u ->
        Decompose.Weyl.cnot_count u = 1
        && (match Decompose.Cirq_like.decompose ~target_gate:Gates.Gate_type.s3 u with
           | Some r -> r.Decompose.Cirq_like.gate_count = 1
           | None -> false)
        &&
        let d =
          Decompose.Nuop.decompose_exact
            ~options:{ Proptest.fast_nuop with starts = 4 }
            ~threshold:(1.0 -. 1e-5) Gates.Gate_type.s3 ~target:u
        in
        d.Decompose.Nuop.layers = 1 && d.Decompose.Nuop.fd >= 1.0 -. 1e-5);
    Proptest.test "template evaluation is unitary" ~count:15
      (arb
         ~print:(fun (layers, _) -> Printf.sprintf "%d layers" layers)
         (G.pair (G.int_range 0 3) (G.array_of ~len:(G.return 64) G.angle)))
      (fun (layers, angles) ->
        let t = Decompose.Template.create Gates.Gate_type.s1 ~layers in
        let params =
          Array.init (Decompose.Template.param_count t) (fun i -> angles.(i))
        in
        Mat.is_unitary ~eps:1e-8 (Decompose.Template.evaluate t params));
    (* unitarity and F_d = 1 against the template's own output cannot
       see a transposed kron or a misplaced gate angle; this can *)
    Proptest.test "template evaluation is the explicit layer product" ~count:10
      (arb
         ~print:(fun angles ->
           String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") angles)))
         (G.array_of ~len:(G.return 54) G.angle))
      (fun angles ->
        List.for_all
          (fun gate_type ->
            List.for_all
              (fun layers ->
                let t = Decompose.Template.create gate_type ~layers in
                let params =
                  Array.sub angles 0 (Decompose.Template.param_count t)
                in
                Mat.max_abs_entry
                  (Mat.sub
                     (Decompose.Template.evaluate t params)
                     (template_reference gate_type ~layers params))
                <= 1e-12)
              [ 0; 1; 2; 3; 4; 5; 6 ])
          Gates.Gate_type.[ s1; s3; swap_type; Fsim_family; Xy_family; Cphase_family ]);
  ]

(* synthetic curves — persistence is agnostic to where a curve came
   from, so round-trip laws don't need to pay for real optimizations *)
let synthetic_curve =
  G.array_of
    ~len:(G.int_range 1 4)
    (G.map2
       (fun layers (params, fd) -> (layers, params, fd))
       (G.int_range 0 5)
       (G.pair
          (G.array_of ~len:(G.int_range 0 6) (G.float_range (-4.0) 4.0))
          (G.float_range 0.0 1.0)))

let synthetic_entries =
  G.map
    (fun curves -> List.mapi (fun i c -> (Printf.sprintf "key-%d|synthetic" i, c)) curves)
    (G.list_of ~len:(G.int_range 0 6) synthetic_curve)

let print_entries entries =
  String.concat "; "
    (List.map
       (fun (k, c) -> Printf.sprintf "%s (%d points)" k (Array.length c))
       entries)

(* ways to damage a snapshot file; every one must load as a clean error *)
type corruption = Truncate of float | Wrong_schema | Garbage of string | Empty

let corruption_gen rng =
  match Rng.int rng 4 with
  | 0 -> Truncate (Rng.uniform rng 0.0 0.999)
  | 1 -> Wrong_schema
  | 2 ->
    let n = Rng.int rng 64 in
    Garbage (String.init n (fun _ -> Char.chr (32 + Rng.int rng 95)))
  | _ -> Empty

let print_corruption = function
  | Truncate f -> Printf.sprintf "Truncate %.3f" f
  | Wrong_schema -> "Wrong_schema"
  | Garbage s -> Printf.sprintf "Garbage %S" s
  | Empty -> "Empty"

let persist_properties =
  [
    (* the round-trip law: every key, layer count, parameter vector and
       fidelity float survives save -> load with exact bits *)
    Proptest.test "snapshots round-trip entries exactly" ~count:25
      (arb ~print:print_entries synthetic_entries)
      (fun entries ->
        Proptest.with_temp_file (fun file ->
            Decompose.Persist.save file entries;
            match Decompose.Persist.load file with
            | Ok back -> back = entries
            | Error _ -> false));
    (* corruption tolerance: truncated, wrong-version, garbage and empty
       files are Errors (hence empty warm sets), never exceptions *)
    Proptest.test "corrupted snapshots load as clean errors" ~count:40
      (arb
         ~print:(fun (entries, c) ->
           Printf.sprintf "%s / %s" (print_corruption c) (print_entries entries))
         (G.pair synthetic_entries corruption_gen))
      (fun (entries, corruption) ->
        Proptest.with_temp_file (fun file ->
            Decompose.Persist.save file entries;
            (match corruption with
            | Truncate frac ->
              let s = In_channel.with_open_bin file In_channel.input_all in
              write_file file
                (String.sub s 0 (int_of_float (frac *. float_of_int (String.length s))))
            | Wrong_schema ->
              write_file file {|{"schema": "nuop-curves/999", "entries": []}|}
            | Garbage s -> write_file file s
            | Empty -> write_file file "");
            match Decompose.Persist.load file with
            | Ok _ -> false
            | Error reason -> String.length reason > 0));
    (* merge semantics: a disk entry never clobbers the curve already in
       memory under the same key *)
    Proptest.test "disk entries never clobber in-memory curves" ~count:15
      (arb
         ~print:(fun (a, b) ->
           Printf.sprintf "mem %d points / disk %d points" (Array.length a)
             (Array.length b))
         (G.pair synthetic_curve synthetic_curve))
      (fun (mem_curve, disk_curve) ->
        Proptest.with_temp_file (fun file ->
            Proptest.with_temp_file (fun file2 ->
                let key = "key-clobber|synthetic" in
                Decompose.Cache.clear ();
                Decompose.Persist.save file [ (key, disk_curve) ];
                let first = Decompose.Cache.merge_entries [ (key, mem_curve) ] in
                let merged = Decompose.Cache.load_from_file file in
                ignore (Decompose.Cache.save_to_file file2);
                Decompose.Cache.clear ();
                match Decompose.Persist.load file2 with
                | Ok [ (k, c) ] -> first = 1 && merged = 0 && k = key && c = mem_curve
                | Ok _ | Error _ -> false)));
    (* determinism end to end: a compile served entirely from a loaded
       snapshot equals the cold compile bit for bit, and the reuse is
       attributed to warm hits *)
    Proptest.test "warmed compile equals cold compile bit for bit" ~count:2
      (Proptest.circuit ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        Proptest.with_temp_file (fun file ->
            let options =
              { Compiler.Pipeline.default_options with nuop = Proptest.fast_nuop }
            in
            let device = Device.sycamore_line 4 in
            let isa = Isa.Set.g2 in
            Decompose.Cache.clear ();
            let cold = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            let saved = Decompose.Cache.save_to_file file in
            Decompose.Cache.clear ();
            let loaded = Decompose.Cache.load_from_file file in
            let warm = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            let warm_hits = Decompose.Cache.warm_hits () in
            saved = loaded
            && Decompose.Cache.warm_count () = loaded
            && Proptest.same_compiled cold warm
            && (saved = 0 || warm_hits > 0)));
  ]

let () =
  Alcotest.run "decompose"
    [
      ( "template",
        [
          Alcotest.test_case "param count" `Quick test_template_param_count;
          Alcotest.test_case "unitary" `Quick test_template_evaluate_unitary;
          Alcotest.test_case "0 layers = locals" `Quick test_template_zero_layers_local;
          Alcotest.test_case "self fidelity" `Quick test_template_fidelity_self;
          Alcotest.test_case "family angles" `Quick test_template_family_gate_angles;
          Alcotest.test_case "fidelity allocation" `Quick test_template_fidelity_allocation;
          Alcotest.test_case "gate kernels by shape" `Quick test_template_gate_kernels;
          Alcotest.test_case "gradient is Grad.central bit for bit" `Quick
            test_template_gradient_bits;
        ] );
      ( "weyl",
        [
          Alcotest.test_case "known counts" `Quick test_weyl_known_counts;
          Alcotest.test_case "locals are 0" `Quick test_weyl_local_gates;
          Alcotest.test_case "random SU4 is 3" `Quick test_weyl_random_su4;
          Alcotest.test_case "makhlin invariance" `Quick test_makhlin_local_invariance;
          Alcotest.test_case "makhlin identity" `Quick test_makhlin_identity_values;
          Alcotest.test_case "makhlin cnot" `Quick test_makhlin_cnot_values;
          Alcotest.test_case "coordinates known" `Quick test_weyl_coordinates_known;
          Alcotest.test_case "coordinates roundtrip" `Quick test_weyl_coordinates_roundtrip;
          Alcotest.test_case "canonical gate" `Quick test_weyl_canonical_gate_unitary;
          Alcotest.test_case "distinguishes classes" `Quick test_weyl_distinguishes;
        ]
        @ weyl_properties );
      ( "nuop_exact",
        [
          Alcotest.test_case "SU4 -> 3 CZ" `Quick test_nuop_su4_counts;
          Alcotest.test_case "ZZ -> 2 CZ" `Quick test_nuop_zz_two_cz;
          Alcotest.test_case "CZ -> 1 CZ" `Quick test_nuop_cz_self;
          Alcotest.test_case "SWAP native" `Quick test_nuop_swap_native;
          Alcotest.test_case "SWAP -> 3 CZ" `Quick test_nuop_swap_needs_three_cz;
          Alcotest.test_case "local -> 0" `Quick test_nuop_local_zero_layers;
          Alcotest.test_case "implemented unitary" `Quick test_nuop_implemented_unitary_matches;
          Alcotest.test_case "full family <= 2" `Quick test_nuop_full_family_two_layers;
          Alcotest.test_case "near identity" `Quick test_nuop_near_identity;
        ] );
      ( "nuop_circuit",
        [
          Alcotest.test_case "structure" `Quick test_nuop_to_circuit_structure;
          Alcotest.test_case "simulates to target" `Quick test_nuop_circuit_simulates_to_target;
        ] );
      ( "nuop_approx",
        [
          Alcotest.test_case "trades layers" `Quick test_approx_trades_layers;
          Alcotest.test_case "perfect hardware" `Quick test_approx_perfect_hardware_is_exact;
          Alcotest.test_case "select best" `Quick test_select_best;
        ] );
      ( "curves_cache",
        [
          Alcotest.test_case "curve monotone" `Quick test_fd_curve_monotone;
          Alcotest.test_case "curves match the Grad.central reference" `Quick
            test_fd_curve_matches_reference;
          Alcotest.test_case "work counters" `Quick test_nuop_counters;
          Alcotest.test_case "cache hit" `Quick test_cache_hit;
          Alcotest.test_case "key pinned" `Quick test_cache_key_pinned;
          Alcotest.test_case "key parts" `Quick test_cache_key_parts;
          Alcotest.test_case "cache consistent" `Quick test_cache_modes_consistent;
          Alcotest.test_case "cache stats concurrent" `Quick
            test_cache_stats_concurrent;
          Alcotest.test_case "options keyed" `Quick test_cache_keys_include_options;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction_keeps_newest;
          Alcotest.test_case "concurrent fill past cap" `Quick
            test_cache_concurrent_fill_past_cap;
          Alcotest.test_case "clear resets counters" `Quick test_cache_clear_resets_counters;
          Alcotest.test_case "eviction survivor set" `Quick test_cache_eviction_survivor_set;
          Alcotest.test_case "insert cost bounded" `Quick test_cache_insert_cost_bounded;
        ] );
      ( "persist",
        [
          Alcotest.test_case "roundtrip real curve" `Quick test_persist_roundtrip_real_curve;
          Alcotest.test_case "adversarial loads" `Quick test_persist_adversarial_loads;
          Alcotest.test_case "merge prefers memory" `Quick test_persist_merge_prefers_memory;
          Alcotest.test_case "validate env file" `Quick test_validate_env_file;
          Alcotest.test_case "parse pool size" `Quick test_parse_pool_size;
        ]
        @ persist_properties );
      ( "cirq_like",
        [
          Alcotest.test_case "generic counts" `Quick test_cirq_counts;
          Alcotest.test_case "zz counts" `Quick test_cirq_zz;
          Alcotest.test_case "local" `Quick test_cirq_local;
        ] );
      ("decompose", decompose_properties);
    ]
