(* Tests for the numerical optimization substrate, plus BFGS properties
   on random convex quadratics. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let quadratic x =
  (* minimum 0 at (1, -2, 3) *)
  let d0 = x.(0) -. 1.0 and d1 = x.(1) +. 2.0 and d2 = x.(2) -. 3.0 in
  (d0 *. d0) +. (2.0 *. d1 *. d1) +. (0.5 *. d2 *. d2)

let rosenbrock x =
  let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
  (a *. a) +. (100.0 *. b *. b)

(* ---------- Grad ---------- *)

(* gradient into fresh buffers; [central] itself allocates nothing *)
let central f x =
  let n = Array.length x in
  let g = Array.make n 0.0 in
  Optimize.Grad.central ~h:1e-7 f x ~g ~xp:(Array.make n 0.0);
  g

let test_grad_central () =
  let g = central quadratic [| 0.0; 0.0; 0.0 |] in
  check_bool "d0" true (Float.abs (g.(0) -. -2.0) < 1e-5);
  check_bool "d1" true (Float.abs (g.(1) -. 8.0) < 1e-5);
  check_bool "d2" true (Float.abs (g.(2) -. -3.0) < 1e-5)

let test_grad_norm_dot () =
  check_float "norm" 5.0 (Optimize.Grad.norm [| 3.0; 4.0 |]);
  check_float "dot" 11.0 (Optimize.Grad.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |])

(* ---------- Line search ---------- *)

let test_line_search_descends () =
  let x = [| 0.0; 0.0; 0.0 |] in
  let g = central quadratic x in
  let d = Array.map (fun v -> -.v) g in
  let slope = Optimize.Grad.dot g d in
  let r =
    Optimize.Line_search.search quadratic x d ~f0:(quadratic x) ~slope
      ~trial:(Array.make 3 0.0)
  in
  check_bool "progress" true (r.Optimize.Line_search.f_new < quadratic x);
  check_bool "positive step" true (r.Optimize.Line_search.step > 0.0)

(* ---------- BFGS ---------- *)

let test_bfgs_quadratic () =
  let r = Optimize.Bfgs.minimize quadratic [| 5.0; 5.0; 5.0 |] in
  check_bool "converged" true (r.Optimize.Bfgs.f < 1e-10);
  check_bool "x0" true (Float.abs (r.Optimize.Bfgs.x.(0) -. 1.0) < 1e-4);
  check_bool "x1" true (Float.abs (r.Optimize.Bfgs.x.(1) +. 2.0) < 1e-4);
  check_bool "x2" true (Float.abs (r.Optimize.Bfgs.x.(2) -. 3.0) < 1e-4)

let test_bfgs_rosenbrock () =
  let options = { Optimize.Bfgs.default_options with max_iter = 600 } in
  let r = Optimize.Bfgs.minimize ~options rosenbrock [| -1.2; 1.0 |] in
  check_bool "low value" true (r.Optimize.Bfgs.f < 1e-6)

let test_bfgs_target_stop () =
  let options = { Optimize.Bfgs.default_options with f_tol = 0.5 } in
  let r = Optimize.Bfgs.minimize ~options quadratic [| 5.0; 5.0; 5.0 |] in
  check_bool "stopped at target" true (r.Optimize.Bfgs.f <= 0.5)

let test_bfgs_at_optimum () =
  let r = Optimize.Bfgs.minimize quadratic [| 1.0; -2.0; 3.0 |] in
  check_bool "stays" true (r.Optimize.Bfgs.f < 1e-12);
  check_bool "converged outcome" true
    (match r.Optimize.Bfgs.outcome with
    | Optimize.Bfgs.Converged | Optimize.Bfgs.Target_reached | Optimize.Bfgs.Stagnated ->
      true
    | Optimize.Bfgs.Max_iterations -> false)

let test_bfgs_does_not_mutate_start () =
  let x0 = [| 5.0; 5.0; 5.0 |] in
  ignore (Optimize.Bfgs.minimize quadratic x0);
  Alcotest.(check (array (float 0.0))) "x0 unchanged" [| 5.0; 5.0; 5.0 |] x0

let test_bfgs_iterations_allocate_no_arrays () =
  (* a 40-dimensional fit, so any per-iteration array would cost >= 41
     words: count the words of ten extra iterations, net of the
     objective's own boxed results *)
  let n = 40 in
  let f x =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (float_of_int (i + 1) *. x.(i) *. x.(i))
    done;
    !acc
  in
  let words g =
    let w0 = Gc.minor_words () in
    let r = g () in
    (Gc.minor_words () -. w0, r)
  in
  let x0 = Array.make n 1.0 in
  let per_eval, _ = words (fun () -> Sys.opaque_identity (f x0)) in
  let run max_iter =
    let options = { Optimize.Bfgs.default_options with max_iter } in
    words (fun () -> Optimize.Bfgs.minimize ~options f x0)
  in
  let w5, r5 = run 5 in
  let w15, r15 = run 15 in
  let evals = float_of_int (r15.Optimize.Bfgs.evaluations - r5.Optimize.Bfgs.evaluations) in
  let per_iter =
    (w15 -. w5 -. (evals *. per_eval))
    /. float_of_int (r15.Optimize.Bfgs.iterations - r5.Optimize.Bfgs.iterations)
  in
  check_bool
    (Printf.sprintf "%.1f words per iteration < 41" per_iter)
    true (per_iter < 41.0)

(* A supplied gradient replaces Grad.central and nothing else: with
   Grad.central itself supplied, the run is the default run bit for bit,
   and its [evaluations] still count the 2n probes of every gradient. *)
let test_bfgs_supplied_gradient () =
  let options = { Optimize.Bfgs.default_options with max_iter = 40 } in
  let x0 = [| -1.2; 1.0 |] in
  let calls = ref 0 in
  let gradient x ~g =
    incr calls;
    Optimize.Grad.central ~h:options.fd_step rosenbrock x ~g ~xp:(Array.make 2 0.0)
  in
  let (a : Optimize.Bfgs.result) = Optimize.Bfgs.minimize ~options rosenbrock x0 in
  let (b : Optimize.Bfgs.result) =
    Optimize.Bfgs.minimize ~options ~gradient rosenbrock x0
  in
  let bits = Array.map Int64.bits_of_float in
  check_bool "same x" true (bits a.x = bits b.x);
  check_bool "same f" true (Int64.bits_of_float a.f = Int64.bits_of_float b.f);
  check_int "same iterations" a.iterations b.iterations;
  check_int "same evaluations" a.evaluations b.evaluations;
  check_int "gradients counted" !calls b.gradients;
  check_int "same gradients" a.gradients b.gradients;
  (* the run stopped inside the loop, before its next gradient *)
  check_int "one gradient per iteration" a.iterations a.gradients

(* ---------- Nelder-Mead ---------- *)

let test_nelder_mead_quadratic () =
  let r = Optimize.Nelder_mead.minimize quadratic [| 4.0; 4.0; 4.0 |] in
  check_bool "low value" true (r.Optimize.Nelder_mead.f < 1e-8)

let test_nelder_mead_target () =
  let options = { Optimize.Nelder_mead.default_options with target = 0.1 } in
  let r = Optimize.Nelder_mead.minimize ~options quadratic [| 4.0; 4.0; 4.0 |] in
  check_bool "target reached" true (r.Optimize.Nelder_mead.f <= 0.1)

(* ---------- Multistart ---------- *)

(* multiple local minima: f(x) = (x^2 - 1)^2 + 0.1 (x - 1)^2 has a global
   minimum near x = 1 and a local one near x = -1 *)
let double_well x =
  let v = (x.(0) *. x.(0)) -. 1.0 in
  (v *. v) +. (0.1 *. (x.(0) -. 1.0) *. (x.(0) -. 1.0))

let test_multistart_escapes_local () =
  let rng = Linalg.Rng.create 11 in
  let run =
    Optimize.Multistart.run_parallel ~domains:1 ~rng ~starts:12 ~dim:1 ~lo:(-2.0)
      ~hi:2.0 ~target:1e-9
      ~optimize:(fun x0 -> Optimize.Bfgs.minimize double_well x0)
      ~value:(fun r -> r.Optimize.Bfgs.f)
      ()
  in
  check_bool "found global" true (run.Optimize.Multistart.best_f < 1e-6)

let test_multistart_early_stop () =
  let rng = Linalg.Rng.create 11 in
  let count = ref 0 in
  let run =
    Optimize.Multistart.run_parallel ~domains:1 ~rng ~starts:20 ~dim:3 ~lo:(-5.0)
      ~hi:5.0 ~target:1e-8
      ~optimize:(fun x0 ->
        incr count;
        Optimize.Bfgs.minimize quadratic x0)
      ~value:(fun r -> r.Optimize.Bfgs.f)
      ()
  in
  check_bool "early stop" true (!count < 20);
  check_bool "solved" true (run.Optimize.Multistart.best_f < 1e-8)

let test_multistart_first_start () =
  let rng = Linalg.Rng.create 11 in
  let seen = ref [] in
  let _ =
    Optimize.Multistart.run_parallel ~domains:1 ~first_start:[| 9.0 |] ~rng ~starts:1
      ~dim:1 ~lo:0.0 ~hi:1.0 ~target:(-1.0)
      ~optimize:(fun x0 ->
        seen := x0.(0) :: !seen;
        Optimize.Bfgs.minimize (fun x -> x.(0) *. x.(0)) x0)
      ~value:(fun r -> r.Optimize.Bfgs.f)
      ()
  in
  check_float "uses first_start" 9.0 (List.hd (List.rev !seen))

let test_multistart_parallel_matches_sequential () =
  (* pools 2 and 3 must reproduce the lazy sequential loop of pool 1
     exactly — same best point, value and starts_used — including the
     early-stop scan *)
  let run_with domains =
    let rng = Linalg.Rng.create 11 in
    Optimize.Multistart.run_parallel ~domains ~rng ~starts:12 ~dim:1 ~lo:(-2.0) ~hi:2.0
      ~target:1e-9
      ~optimize:(fun x0 -> Optimize.Bfgs.minimize double_well x0)
      ~value:(fun (r : Optimize.Bfgs.result) -> r.Optimize.Bfgs.f)
      ()
  in
  let seq = run_with 1 in
  List.iter
    (fun domains ->
      let par = run_with domains in
      check_float "same best_f" seq.Optimize.Multistart.best_f
        par.Optimize.Multistart.best_f;
      Alcotest.(check int)
        "same starts_used" seq.Optimize.Multistart.starts_used
        par.Optimize.Multistart.starts_used;
      check_float "same best point"
        seq.Optimize.Multistart.best.Optimize.Bfgs.x.(0)
        par.Optimize.Multistart.best.Optimize.Bfgs.x.(0))
    [ 2; 3 ]

(* ---------- properties: BFGS on random convex quadratics ---------- *)

(* sum_i a_i (x_i - c_i)^2 from x0, with every a_i > 0 *)
type convex = { a : float array; c : float array; x0 : float array }

let convex_gen rng =
  let n = 2 + Linalg.Rng.int rng 4 in
  let uniform lo hi = Linalg.Rng.uniform rng lo hi in
  {
    a = Array.init n (fun _ -> uniform 0.5 3.0);
    c = Array.init n (fun _ -> uniform (-2.0) 2.0);
    x0 = Array.init n (fun _ -> uniform (-3.0) 3.0);
  }

let convex_f q x =
  let acc = ref 0.0 in
  Array.iteri (fun i ai -> acc := !acc +. (ai *. (x.(i) -. q.c.(i)) ** 2.0)) q.a;
  !acc

let print_convex q =
  let arr v =
    String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.6g") v))
  in
  Printf.sprintf "a=[%s] c=[%s] x0=[%s]" (arr q.a) (arr q.c) (arr q.x0)

let convex_arb = Proptest.arbitrary ~print:print_convex convex_gen

let optimize_properties =
  [
    (* the stagnation-exit regression: an absolute f-decrease cutoff
       aborts these runs at objective values ~1e-12 with the gradient
       still orders of magnitude above grad_tol *)
    Proptest.test "bfgs reaches grad_tol on convex quadratics" ~count:25 convex_arb
      (fun q ->
        let r = Optimize.Bfgs.minimize (convex_f q) q.x0 in
        r.Optimize.Bfgs.outcome = Optimize.Bfgs.Converged
        && r.Optimize.Bfgs.f < 1e-10
        && Array.for_all2 (fun xi ci -> Float.abs (xi -. ci) < 1e-4) r.Optimize.Bfgs.x q.c);
    Proptest.test "bfgs never increases the objective" ~count:25 convex_arb
      (fun q ->
        let r = Optimize.Bfgs.minimize (convex_f q) q.x0 in
        r.Optimize.Bfgs.f <= convex_f q q.x0 +. 1e-12);
  ]

let () =
  Alcotest.run "optimize"
    [
      ( "grad",
        [
          Alcotest.test_case "central" `Quick test_grad_central;
          Alcotest.test_case "norm/dot" `Quick test_grad_norm_dot;
        ] );
      ("line_search", [ Alcotest.test_case "descends" `Quick test_line_search_descends ]);
      ( "bfgs",
        [
          Alcotest.test_case "quadratic" `Quick test_bfgs_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_bfgs_rosenbrock;
          Alcotest.test_case "target stop" `Quick test_bfgs_target_stop;
          Alcotest.test_case "at optimum" `Quick test_bfgs_at_optimum;
          Alcotest.test_case "pure in x0" `Quick test_bfgs_does_not_mutate_start;
          Alcotest.test_case "iterations allocate no arrays" `Quick
            test_bfgs_iterations_allocate_no_arrays;
          Alcotest.test_case "supplied gradient" `Quick test_bfgs_supplied_gradient;
        ] );
      ( "nelder_mead",
        [
          Alcotest.test_case "quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "target" `Quick test_nelder_mead_target;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "escapes local minimum" `Quick test_multistart_escapes_local;
          Alcotest.test_case "early stop" `Quick test_multistart_early_stop;
          Alcotest.test_case "first start honored" `Quick test_multistart_first_start;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_multistart_parallel_matches_sequential;
        ] );
      ("optimize", optimize_properties);
    ]
