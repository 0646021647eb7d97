(* Tests for the evaluation metrics. *)

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

(* ---------- Dist ---------- *)

let test_dist_uniform () =
  let u = Metrics.Dist.uniform 8 in
  check_float "entry" 0.125 u.(3);
  Metrics.Dist.validate u

let test_dist_median () =
  check_float "odd" 2.0 (Metrics.Dist.median [| 3.0; 1.0; 2.0 |]);
  check_float "even" 2.5 (Metrics.Dist.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_dist_entropy () =
  let u = Metrics.Dist.uniform 4 in
  check_loose "uniform entropy" (Float.log 4.0) (Metrics.Dist.entropy u);
  check_loose "pure entropy" 0.0 (Metrics.Dist.entropy [| 1.0; 0.0; 0.0; 0.0 |])

let test_dist_cross_entropy_gibbs () =
  (* H(p, q) >= H(p, p) *)
  let p = [| 0.6; 0.3; 0.1 |] and q = [| 0.2; 0.5; 0.3 |] in
  check_bool "gibbs" true (Metrics.Dist.cross_entropy p q >= Metrics.Dist.entropy p)

let test_dist_tv () =
  check_float "identical" 0.0 (Metrics.Dist.total_variation [| 0.5; 0.5 |] [| 0.5; 0.5 |]);
  check_float "disjoint" 1.0 (Metrics.Dist.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_dist_overlap () =
  check_float "overlap" 0.5 (Metrics.Dist.overlap [| 0.5; 0.5 |] [| 0.5; 0.5 |])

(* ---------- HOP ---------- *)

let test_hop_perfect () =
  let ideal = [| 0.4; 0.3; 0.2; 0.1 |] in
  (* heavy set = outputs above median 0.25 -> {0, 1}; ideal mass = 0.7 *)
  check_float "self" 0.7 (Metrics.Hop.probability ~ideal ~noisy:ideal)

let test_hop_uniform_noise () =
  let ideal = [| 0.4; 0.3; 0.2; 0.1 |] in
  let noisy = Metrics.Dist.uniform 4 in
  (* two heavy outputs x 0.25 *)
  check_float "uniform" 0.5 (Metrics.Hop.probability ~ideal ~noisy)

let test_hop_heavy_set () =
  let ideal = [| 0.4; 0.3; 0.2; 0.1 |] in
  Alcotest.(check (list int)) "heavy" [ 0; 1 ] (List.sort compare (Metrics.Hop.heavy_set ~ideal))

let test_hop_mean_and_threshold () =
  let p1 = ([| 0.4; 0.3; 0.2; 0.1 |], [| 0.4; 0.3; 0.2; 0.1 |]) in
  let p2 = ([| 0.4; 0.3; 0.2; 0.1 |], Metrics.Dist.uniform 4) in
  check_float "mean" 0.6 (Metrics.Hop.mean_hop [ p1; p2 ]);
  check_bool "passes" true (Metrics.Hop.passes_qv [ p1; p1 ]);
  check_bool "fails" false (Metrics.Hop.passes_qv [ p2; p2 ])

(* ---------- XED ---------- *)

let test_xed_perfect () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  check_loose "perfect = 1" 1.0 (Metrics.Xed.difference ~ideal ~noisy:ideal)

let test_xed_uniform () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  check_loose "uniform = 0" 0.0
    (Metrics.Xed.difference ~ideal ~noisy:(Metrics.Dist.uniform 4))

let test_xed_interpolates () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  let mixed = Array.map (fun p -> (0.5 *. p) +. (0.5 *. 0.25)) ideal in
  let v = Metrics.Xed.difference ~ideal ~noisy:mixed in
  check_bool "between" true (v > 0.0 && v < 1.0)

let test_xed_degenerate_ideal () =
  (* uniform ideal: denominator vanishes, metric defined as 0 *)
  let u = Metrics.Dist.uniform 4 in
  check_float "0 on degenerate" 0.0 (Metrics.Xed.difference ~ideal:u ~noisy:u)

(* ---------- XEB ---------- *)

let test_xeb_normalized_perfect () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  check_loose "perfect = 1" 1.0 (Metrics.Xeb.normalized_fidelity ~ideal ~noisy:ideal)

let test_xeb_normalized_mixed () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  check_loose "mixed = 0" 0.0
    (Metrics.Xeb.normalized_fidelity ~ideal ~noisy:(Metrics.Dist.uniform 4))

let test_xeb_linear () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  check_loose "uniform = 0" 0.0
    (Metrics.Xeb.linear_fidelity ~ideal ~noisy:(Metrics.Dist.uniform 4))

let test_xeb_from_overlap_consistency () =
  let ideal = [| 0.5; 0.25; 0.15; 0.1 |] in
  let noisy = [| 0.4; 0.3; 0.2; 0.1 |] in
  let direct = Metrics.Xeb.normalized_fidelity ~ideal ~noisy in
  let via =
    Metrics.Xeb.from_overlap ~n_qubits:2
      ~overlap_noisy_ideal:(Metrics.Dist.overlap noisy ideal)
      ~overlap_ideal_ideal:(Metrics.Dist.overlap ideal ideal)
  in
  check_loose "consistent" direct via

(* metric bounds on random distributions *)
let random_dist rng n =
  let raw = Array.init n (fun _ -> Linalg.Rng.uniform rng 0.01 1.0) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun v -> v /. total) raw

let seed_arb = Proptest.arbitrary ~print:string_of_int (Proptest.Gen.int_range 0 100000)

let prop_hop_bounds =
  Proptest.test ~count:50 "hop in [0,1]" seed_arb (fun seed ->
      let rng = Linalg.Rng.create seed in
      let ideal = random_dist rng 8 and noisy = random_dist rng 8 in
      let v = Metrics.Hop.probability ~ideal ~noisy in
      v >= 0.0 && v <= 1.0)

let prop_xed_perfect_is_one =
  Proptest.test ~count:50 "xed(p, p) = 1" seed_arb (fun seed ->
      let rng = Linalg.Rng.create seed in
      let ideal = random_dist rng 8 in
      Float.abs (Metrics.Xed.difference ~ideal ~noisy:ideal -. 1.0) < 1e-9)

let () =
  Alcotest.run "metrics"
    [
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "median" `Quick test_dist_median;
          Alcotest.test_case "entropy" `Quick test_dist_entropy;
          Alcotest.test_case "gibbs" `Quick test_dist_cross_entropy_gibbs;
          Alcotest.test_case "tv" `Quick test_dist_tv;
          Alcotest.test_case "overlap" `Quick test_dist_overlap;
        ] );
      ( "hop",
        [
          Alcotest.test_case "perfect" `Quick test_hop_perfect;
          Alcotest.test_case "uniform" `Quick test_hop_uniform_noise;
          Alcotest.test_case "heavy set" `Quick test_hop_heavy_set;
          Alcotest.test_case "mean/threshold" `Quick test_hop_mean_and_threshold;
        ] );
      ( "xed",
        [
          Alcotest.test_case "perfect" `Quick test_xed_perfect;
          Alcotest.test_case "uniform" `Quick test_xed_uniform;
          Alcotest.test_case "interpolates" `Quick test_xed_interpolates;
          Alcotest.test_case "degenerate" `Quick test_xed_degenerate_ideal;
        ] );
      ( "xeb",
        [
          Alcotest.test_case "perfect" `Quick test_xeb_normalized_perfect;
          Alcotest.test_case "mixed" `Quick test_xeb_normalized_mixed;
          Alcotest.test_case "linear uniform" `Quick test_xeb_linear;
          Alcotest.test_case "from_overlap" `Quick test_xeb_from_overlap_consistency;
        ] );
      ( "properties",
        [ prop_hop_bounds; prop_xed_perfect_is_one ] );
    ]
