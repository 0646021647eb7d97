(* Tests for the calibration cost model (Sec IX). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let m = Calibration.Model.default

let test_per_type_pair_breakdown () =
  (* 5 angle tune-ups x 100 + 250 tomography + 1000 x 10 XEB *)
  check_int "per pair" ((5 * 100) + 250 + 10000) (Calibration.Model.circuits_per_type_pair m)

(* coupler counts of the near-square grids Isa.Cost.grid_topology builds
   (pinned in test_grid_pairs): 97 at 54 qubits, 1984 at 1000 *)
let test_headline_numbers () =
  (* 54-qubit device, 10 gate types: ~1e7 circuits (Sec IX) *)
  let c = Calibration.Model.total_circuits m ~n_pairs:97 ~n_types:10 in
  check_bool "order 1e7" true (c > 5_000_000 && c < 20_000_000)

let test_thousand_qubits () =
  let c = Calibration.Model.total_circuits m ~n_pairs:1984 ~n_types:10 in
  check_bool "order 1e8+" true (c > 100_000_000)

let test_grid_pairs () =
  let pairs n = Device.Topology.edge_count (Isa.Cost.grid_topology n) in
  (* 54 qubits as a near-square grid: 7x8 = 56 slots -> 2*7*8 - 7 - 8 = 97 *)
  check_int "54" 97 (pairs 54);
  (* 9 qubits = 3x3 grid: 12 edges *)
  check_int "9" 12 (pairs 9);
  (* 1000 qubits: 32x32 = 1024 slots -> 2*32*32 - 32 - 32 = 1984 *)
  check_int "1000" 1984 (pairs 1000)

let test_linear_scaling () =
  let c1 = Calibration.Model.total_circuits m ~n_pairs:100 ~n_types:1 in
  let c4 = Calibration.Model.total_circuits m ~n_pairs:100 ~n_types:4 in
  check_int "linear in types" (4 * c1) c4;
  let p2 = Calibration.Model.total_circuits m ~n_pairs:200 ~n_types:1 in
  check_int "linear in pairs" (2 * c1) p2

let test_time_models () =
  Alcotest.(check (float 1e-9)) "serial" 400.0
    (Calibration.Model.time_hours_serial m ~n_pairs:100 ~n_types:2);
  Alcotest.(check (float 1e-9)) "parallel" 16.0
    (Calibration.Model.time_hours_parallel m ~n_types:2)

let test_continuous_overhead () =
  (* 525 types vs 8 types: ~66x, i.e. around two orders of magnitude in
     combination with the per-type pair costs the paper cites *)
  let f = Calibration.Model.continuous_overhead_factor ~n_types:8 in
  check_bool "~66x" true (f > 60.0 && f < 70.0);
  let f1 = Calibration.Model.continuous_overhead_factor ~n_types:1 in
  check_bool "525x vs single" true (Float.abs (f1 -. 525.0) < 1e-9)

let prop_total_positive =
  Proptest.test ~count:50 "totals positive and linear"
    (Proptest.arbitrary
       ~print:(fun (pairs, types) -> Printf.sprintf "%d pairs, %d types" pairs types)
       Proptest.Gen.(pair (int_range 1 2000) (int_range 1 20)))
    (fun (pairs, types) ->
      let c = Calibration.Model.total_circuits m ~n_pairs:pairs ~n_types:types in
      c = pairs * types * Calibration.Model.circuits_per_type_pair m)

let () =
  Alcotest.run "calibration"
    [
      ( "model",
        [
          Alcotest.test_case "per type-pair" `Quick test_per_type_pair_breakdown;
          Alcotest.test_case "headline 1e7" `Quick test_headline_numbers;
          Alcotest.test_case "1000 qubits" `Quick test_thousand_qubits;
          Alcotest.test_case "grid pairs" `Quick test_grid_pairs;
          Alcotest.test_case "linear scaling" `Quick test_linear_scaling;
          Alcotest.test_case "time models" `Quick test_time_models;
          Alcotest.test_case "continuous overhead" `Quick test_continuous_overhead;
        ] );
      ("properties", [ prop_total_positive ]);
    ]
