(* Tests for topologies, calibration data and the device models, plus
   the snapshot, registry and drift properties. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ---------- Topology ---------- *)

let test_ring () =
  let t = Device.Topology.ring 8 in
  check_int "qubits" 8 (Device.Topology.n_qubits t);
  check_int "edges" 8 (Device.Topology.edge_count t);
  check_bool "adjacent" true (Device.Topology.are_adjacent t 7 0);
  check_bool "not adjacent" false (Device.Topology.are_adjacent t 0 4);
  check_bool "connected" true (Device.Topology.is_connected t)

let test_line () =
  let t = Device.Topology.line 5 in
  check_int "edges" 4 (Device.Topology.edge_count t);
  check_int "distance" 4 (Device.Topology.distance t 0 4)

let test_grid () =
  let t = Device.Topology.grid 6 9 in
  check_int "qubits" 54 (Device.Topology.n_qubits t);
  (* 2rc - r - c *)
  check_int "edges" ((2 * 54) - 6 - 9) (Device.Topology.edge_count t);
  check_bool "connected" true (Device.Topology.is_connected t)

let test_shortest_path () =
  let t = Device.Topology.ring 8 in
  let p = Device.Topology.shortest_path t 0 3 in
  check_int "length" 4 (List.length p);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] p;
  (* the other way around the ring is shorter for 0 -> 6 *)
  Alcotest.(check (list int)) "wraps" [ 0; 7; 6 ] (Device.Topology.shortest_path t 0 6)

let test_path_disconnected () =
  (* two components: the error must name the offending qubit pair *)
  let t = Device.Topology.of_edges 4 [ (0, 1); (2, 3) ] in
  check_bool "disconnected" false (Device.Topology.is_connected t);
  Alcotest.check_raises "raises"
    (Invalid_argument "Topology.shortest_path: qubits 0 and 3 are not connected")
    (fun () -> ignore (Device.Topology.shortest_path t 0 3));
  Alcotest.check_raises "distance raises"
    (Invalid_argument "Topology.shortest_path: qubits 2 and 1 are not connected")
    (fun () -> ignore (Device.Topology.distance t 2 1));
  (* within a component both still work *)
  Alcotest.(check (list int)) "same component" [ 2; 3 ]
    (Device.Topology.shortest_path t 2 3);
  check_int "distance" 1 (Device.Topology.distance t 0 1)

let test_find_line () =
  let t = Device.Topology.grid 3 3 in
  (match Device.Topology.find_line t 5 with
  | None -> Alcotest.fail "expected a 5-line in 3x3 grid"
  | Some path ->
    check_int "length" 5 (List.length path);
    let rec adjacent_pairs = function
      | a :: (b :: _ as rest) ->
        check_bool "adjacent" true (Device.Topology.are_adjacent t a b);
        adjacent_pairs rest
      | [ _ ] | [] -> ()
    in
    adjacent_pairs path);
  check_bool "too long" true (Device.Topology.find_line (Device.Topology.line 3) 4 = None)

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.of_edges: self loop")
    (fun () -> ignore (Device.Topology.of_edges 3 [ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Topology.of_edges: qubit out of range")
    (fun () -> ignore (Device.Topology.of_edges 3 [ (0, 3) ]))

let test_canonical () =
  Alcotest.(check (pair int int)) "ordered" (1, 2) (Device.Topology.canonical (2, 1))

(* ---------- Calibration ---------- *)

(* a 3-qubit line with CZ data on (0,1) only: 1.2% error, 45 ns *)
let make_cal ?(oneq_error = [| 0.001; 0.002; 0.003 |]) ?(readout_error = [| 0.01; 0.02; 0.03 |])
    ?(t1 = [| 20e-6; 20e-6; 20e-6 |]) ?(t2 = [| 10e-6; 10e-6; 10e-6 |])
    ?(duration_1q = 25e-9) ?(duration_2q = 32e-9) ?(twoq_error = [ ((0, 1), "CZ", 0.012) ])
    ?(twoq_duration = [ ((0, 1), "CZ", 45e-9) ])
    ?(family_base = [ ((0, 1), 0.005); ((1, 2), 0.005) ]) () =
  let topology = Device.Topology.line 3 in
  Device.Calibration.make ~topology ~oneq_error ~readout_error ~t1 ~t2 ~duration_1q
    ~duration_2q ~twoq_error ~twoq_duration ~family_base ()

let test_calibration_set_get () =
  let cal = make_cal () in
  check_float "lookup" 0.012 (Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s3);
  (* canonical edge ordering: (1, 0) finds the same entry *)
  check_float "reversed edge" 0.012
    (Device.Calibration.twoq_error cal (1, 0) Gates.Gate_type.s3);
  check_float "fidelity" 0.988
    (Device.Calibration.twoq_fidelity cal (0, 1) Gates.Gate_type.s3);
  (* an entry given on the reversed edge lands on the canonical key *)
  let reversed = make_cal ~twoq_error:[ ((1, 0), "CZ", 0.02) ] () in
  check_float "stored reversed" 0.02
    (Device.Calibration.twoq_error reversed (0, 1) Gates.Gate_type.s3)

let test_calibration_missing_raises () =
  let cal = make_cal () in
  Alcotest.check_raises "missing"
    (Invalid_argument "Calibration.twoq_error: no data for CZ on (1,2)") (fun () ->
      ignore (Device.Calibration.twoq_error cal (1, 2) Gates.Gate_type.s3))

let test_calibration_non_edge_raises () =
  (* a pair outside the topology is a caller bug, and the error names the
     offending edge and gate type (the Topology.shortest_path precedent)
     instead of silently missing the table *)
  let cal = make_cal () in
  Alcotest.check_raises "twoq_error"
    (Invalid_argument
       "Calibration.twoq_error: (0,2) is not an edge of the topology (gate type CZ)")
    (fun () -> ignore (Device.Calibration.twoq_error cal (0, 2) Gates.Gate_type.s3));
  Alcotest.check_raises "make"
    (Invalid_argument
       "Calibration.make: field \"twoq_error\": CZ on (0,2) is not on an edge of the topology")
    (fun () -> ignore (make_cal ~twoq_error:[ ((0, 2), "CZ", 0.01) ] ()));
  Alcotest.check_raises "twoq_duration"
    (Invalid_argument
       "Calibration.twoq_duration: (0,2) is not an edge of the topology (gate type CZ)")
    (fun () -> ignore (Device.Calibration.twoq_duration cal (0, 2) "CZ"));
  (* canonical edge ordering applies before the check: (2,0) = (0,2) *)
  Alcotest.check_raises "reversed"
    (Invalid_argument
       "Calibration.twoq_error: (0,2) is not an edge of the topology (gate type CZ)")
    (fun () -> ignore (Device.Calibration.twoq_error cal (2, 0) Gates.Gate_type.s3))

(* every table is checked once, at construction, with one message form
   naming the table (test_snapshot_values_validated covers the family
   tables and exact duplicates through the JSON loader) *)
let test_calibration_make_validates () =
  List.iter
    (fun (field, build) ->
      match build () with
      | _ -> Alcotest.fail (field ^ ": invalid tables built a calibration")
      | exception Invalid_argument msg ->
        check_bool
          (Printf.sprintf "%s named in %s" field msg)
          true
          (Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) msg))
    [
      ("twoq_error", fun () -> make_cal ~twoq_error:[ ((0, 1), "CZ", 1.5) ] ());
      ("twoq_error", fun () -> make_cal ~twoq_error:[ ((0, 1), "CZ", -0.01) ] ());
      ( "twoq_error",
        fun () -> make_cal ~twoq_error:[ ((0, 1), "CZ", 0.01); ((1, 0), "CZ", 0.02) ] () );
      ("twoq_duration", fun () -> make_cal ~twoq_duration:[ ((0, 2), "CZ", 4e-8) ] ());
      ( "scale",
        fun () -> Device.Calibration.with_family_error_scale (make_cal ()) (-3.0) );
      ( "oneq_error",
        fun () ->
          Device.Calibration.make ~topology:(Device.Topology.line 3) ~oneq_error:[| 0.0 |]
            ~readout_error:[| 0.0; 0.0; 0.0 |] ~t1:[| 1e-5; 1e-5; 1e-5 |]
            ~t2:[| 1e-5; 1e-5; 1e-5 |] ~duration_1q:1e-8 ~duration_2q:1e-8
            ~twoq_error:[] ~twoq_duration:[]
            ~family_base:[ ((0, 1), 0.0); ((1, 2), 0.0) ]
            () );
    ]

(* the per-qubit tables and the durations are range-checked by [make]
   itself, not only by the snapshot loader: an error of 1.5 would reach
   Channel.depolarizing_1q's assertion, and a negative T1 would give a
   negative damping rate, which the noisy runner skips *)
let test_calibration_make_checks_qubits () =
  let refused name msg build =
    Alcotest.check_raises name (Invalid_argument ("Calibration.make: " ^ msg)) (fun () ->
        ignore (build ()))
  in
  refused "1q error above 1" "field \"oneq_error\": qubit 1 must be in [0, 1) (got 1.5)"
    (fun () -> make_cal ~oneq_error:[| 0.001; 1.5; 0.003 |] ());
  refused "1q error nan" "field \"oneq_error\": qubit 0 must be in [0, 1) (got nan)" (fun () ->
      make_cal ~oneq_error:[| Float.nan; 0.002; 0.003 |] ());
  refused "readout error of 1" "field \"readout_error\": qubit 2 must be in [0, 1) (got 1)"
    (fun () -> make_cal ~readout_error:[| 0.01; 0.02; 1.0 |] ());
  refused "readout error negative"
    "field \"readout_error\": qubit 0 must be in [0, 1) (got -0.01)" (fun () ->
      make_cal ~readout_error:[| -0.01; 0.02; 0.03 |] ());
  refused "negative T1" "field \"t1\": qubit 0 must be positive (got -2e-05)" (fun () ->
      make_cal ~t1:[| -2e-5; 20e-6; 20e-6 |] ());
  refused "zero T2" "field \"t2\": qubit 1 must be positive (got 0)" (fun () ->
      make_cal ~t2:[| 10e-6; 0.0; 10e-6 |] ());
  refused "nan T2" "field \"t2\": qubit 2 must be positive (got nan)" (fun () ->
      make_cal ~t2:[| 10e-6; 10e-6; Float.nan |] ());
  refused "negative 1q duration" "field \"duration_1q\" must be non-negative (got -1)"
    (fun () -> make_cal ~duration_1q:(-1.0) ());
  refused "nan 2q duration" "field \"duration_2q\" must be non-negative (got nan)" (fun () ->
      make_cal ~duration_2q:Float.nan ());
  (* an ideal device: no decay and instantaneous gates *)
  let ideal =
    make_cal ~oneq_error:[| 0.0; 0.0; 0.0 |] ~readout_error:[| 0.0; 0.0; 0.0 |]
      ~t1:[| infinity; infinity; infinity |] ~t2:[| infinity; infinity; infinity |]
      ~duration_1q:0.0 ~duration_2q:0.0 ()
  in
  check_float "ideal t1" infinity (Device.Calibration.t1 ideal 2);
  check_float "ideal duration" 0.0 (Device.Calibration.duration_1q ideal);
  (* only T1 and T2 may be infinite, so every calibration dumps to a
     snapshot that loads *)
  refused "infinite 2q duration" "field \"duration_2q\" must be finite" (fun () ->
      make_cal ~duration_2q:infinity ())

let test_calibration_family () =
  let cal = make_cal () in
  check_float "family" 0.005
    (Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.Fsim_family);
  let scaled = Device.Calibration.with_family_error_scale cal 2.0 in
  check_float "scaled" 0.010
    (Device.Calibration.twoq_error scaled (0, 1) Gates.Gate_type.Fsim_family);
  check_float "original scale kept" 0.005
    (Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.Fsim_family);
  (* fixed types unaffected by family scale *)
  check_float "fixed unchanged" 0.012
    (Device.Calibration.twoq_error scaled (0, 1) Gates.Gate_type.s3);
  (* the scaled family saturates at the 0.5 clamp *)
  check_float "clamped" 0.5
    (Device.Calibration.twoq_error
       (Device.Calibration.with_family_error_scale cal 1000.0)
       (0, 1) Gates.Gate_type.Xy_family)

(* the one error map: pure, clamped, and blind to everything but the
   stored fixed-type errors *)
let test_calibration_error_scale () =
  let cal = make_cal ~twoq_error:[ ((0, 1), "CZ", 0.012); ((1, 2), "CZ", 0.3) ] () in
  let scaled = Device.Calibration.map_twoq_errors cal (fun _ _ e -> 2.0 *. e) in
  check_float "2q scaled" 0.024
    (Device.Calibration.twoq_error scaled (0, 1) Gates.Gate_type.s3);
  check_float "2q clamped" 0.5
    (Device.Calibration.twoq_error scaled (1, 2) Gates.Gate_type.s3);
  check_float "family kept" 0.005
    (Device.Calibration.twoq_error scaled (0, 1) Gates.Gate_type.Fsim_family);
  check_float "1q kept" 0.001 (Device.Calibration.oneq_error scaled 0);
  check_float "readout kept" 0.01 (Device.Calibration.readout_error scaled 0);
  check_float "2q duration kept" 45e-9 (Device.Calibration.twoq_duration scaled (0, 1) "CZ");
  check_float "1q duration kept" 25e-9 (Device.Calibration.duration_1q scaled);
  check_float "t1 kept" 20e-6 (Device.Calibration.t1 scaled 0);
  (* original untouched *)
  check_float "original" 0.012 (Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s3)

(* a derived snapshot shares nothing that can change: mapping a scaled
   copy leaves the calibration it came from as it was *)
let test_calibration_derived_independent () =
  let cal = Device.Aspen8.ring_device () in
  let before = Device.Calibration.twoq_error_entries cal in
  let scaled = Device.Calibration.with_family_error_scale cal 2.0 in
  let bumped = Device.Calibration.map_twoq_errors scaled (fun _ _ _ -> 0.2) in
  check_float "derived" 0.2 (Device.Calibration.twoq_error bumped (0, 1) Gates.Gate_type.s3);
  check_bool "source entries" true (Device.Calibration.twoq_error_entries cal = before);
  check_bool "scaled entries" true (Device.Calibration.twoq_error_entries scaled = before)

(* drift draws one multiplier per entry in the error table's fold order:
   a mapped calibration must fold in its source's order, so a drifted
   snapshot drifts again along the same stream (the 54-qubit table
   resizes several times while it fills) *)
let test_calibration_map_keeps_order () =
  let visits cal =
    let order = ref [] in
    ignore
      (Device.Calibration.map_twoq_errors cal (fun edge name e ->
           order := (edge, name) :: !order;
           e));
    List.rev !order
  in
  List.iter
    (fun cal ->
      let mapped = Device.Calibration.map_twoq_errors cal (fun _ _ e -> e *. 1.5) in
      check_bool "same fold order" true (visits cal = visits mapped))
    [ Device.Sycamore.device (); Device.Aspen8.ring_device () ]

let test_calibration_durations () =
  let cal = make_cal () in
  check_float "lookup" 45e-9 (Device.Calibration.twoq_duration cal (0, 1) "CZ");
  (* canonical edge ordering: (1, 0) finds the same entry *)
  check_float "reversed edge" 45e-9 (Device.Calibration.twoq_duration cal (1, 0) "CZ");
  (* other edge and other type fall back to the scalar *)
  check_float "other edge" 32e-9 (Device.Calibration.twoq_duration cal (1, 2) "CZ");
  check_float "other type" 32e-9 (Device.Calibration.twoq_duration cal (0, 1) "iSWAP");
  check_float "mean over edges" ((45e-9 +. 32e-9) /. 2.0)
    (Device.Calibration.mean_twoq_duration cal "CZ");
  Alcotest.check_raises "rejects non-positive"
    (Invalid_argument
       "Calibration.make: field \"twoq_duration\": CZ on (0,1) must be positive (got 0)")
    (fun () -> ignore (make_cal ~twoq_duration:[ ((0, 1), "CZ", 0.0) ] ()))

let test_calibration_accessors () =
  let cal = make_cal () in
  check_float "t1" 20e-6 (Device.Calibration.t1 cal 0);
  check_float "readout" 0.02 (Device.Calibration.readout_error cal 1);
  check_float "d2q" 32e-9 (Device.Calibration.duration_2q cal);
  check_float "base" 0.005 (Device.Calibration.family_base_error cal (1, 0));
  (* the calibrated fixed types, sorted, and their mean error by name *)
  let cal2 =
    make_cal
      ~twoq_error:
        [ ((0, 1), "iSWAP", 0.01); ((1, 2), "iSWAP", 0.03); ((0, 1), "CZ", 0.012) ]
      ()
  in
  Alcotest.(check (list string))
    "calibrated types" [ "CZ"; "iSWAP" ]
    (Device.Calibration.calibrated_types cal2);
  check_float "mean error" 0.02 (Device.Calibration.mean_twoq_error cal2 "iSWAP");
  Alcotest.check_raises "mean error needs every edge"
    (Invalid_argument "Calibration.mean_twoq_error: no data for CZ on (1,2)")
    (fun () -> ignore (Device.Calibration.mean_twoq_error cal2 "CZ"));
  (* the arrays handed to make are copied in, and copied out *)
  let oneq = [| 0.001; 0.002; 0.003 |] in
  let cal =
    Device.Calibration.make ~topology:(Device.Topology.line 3) ~oneq_error:oneq
      ~readout_error:[| 0.0; 0.0; 0.0 |] ~t1:[| 1e-5; 1e-5; 1e-5 |]
      ~t2:[| 1e-5; 1e-5; 1e-5 |] ~duration_1q:1e-8 ~duration_2q:1e-8 ~twoq_error:[]
      ~twoq_duration:[] ~family_base:[ ((0, 1), 0.0); ((1, 2), 0.0) ] ()
  in
  oneq.(0) <- 0.4;
  (Device.Calibration.oneq_errors cal).(0) <- 0.4;
  check_float "1q kept" 0.001 (Device.Calibration.oneq_error cal 0)

(* ---------- Aspen-8 ---------- *)

let test_aspen_table_matches_device () =
  let cal = Device.Aspen8.ring_device () in
  List.iter
    (fun (edge, cz_fid, xy_fid) ->
      check_float "cz" cz_fid (Device.Calibration.twoq_fidelity cal edge Gates.Gate_type.s3);
      check_float "xy" xy_fid
        (Device.Calibration.twoq_fidelity cal edge Gates.Gate_type.xy_pi))
    (Device.Aspen8.fidelity_table ())

let test_aspen_durations () =
  (* the per-type duration table reaches every ring edge *)
  let cal = Device.Aspen8.ring_device () in
  List.iter
    (fun (ty, d) ->
      check_float (Gates.Gate_type.name ty) d
        (Device.Calibration.twoq_duration cal (0, 1) (Gates.Gate_type.name ty));
      check_float "mean = uniform table" d
        (Device.Calibration.mean_twoq_duration cal (Gates.Gate_type.name ty)))
    Device.Aspen8.type_durations

let test_aspen_best_varies () =
  (* Fig 3's key property: the best gate type differs across edges *)
  let table = Device.Aspen8.fidelity_table () in
  let cz_best = List.exists (fun (_, cz, xy) -> cz > xy) table in
  let xy_best = List.exists (fun (_, cz, xy) -> xy > cz) table in
  check_bool "cz best somewhere" true cz_best;
  check_bool "xy best somewhere" true xy_best

let test_aspen_xy_band () =
  let cal = Device.Aspen8.ring_device () in
  let topo = Device.Calibration.topology cal in
  List.iter
    (fun e ->
      let err = Device.Calibration.twoq_error cal e Gates.Gate_type.s5 in
      check_bool "95-99% band" true (err >= 0.01 && err <= 0.05))
    (Device.Topology.edges topo)

let test_aspen_deterministic () =
  let a = Device.Aspen8.ring_device ~seed:4 () in
  let b = Device.Aspen8.ring_device ~seed:4 () in
  check_float "same draw"
    (Device.Calibration.twoq_error a (0, 1) Gates.Gate_type.s5)
    (Device.Calibration.twoq_error b (0, 1) Gates.Gate_type.s5)

(* ---------- Sycamore ---------- *)

let test_sycamore_distribution () =
  let cal = Device.Sycamore.device () in
  let topo = Device.Calibration.topology cal in
  check_int "54 qubits" 54 (Device.Topology.n_qubits topo);
  let errs =
    List.map (fun e -> Device.Calibration.twoq_error cal e Gates.Gate_type.s1)
      (Device.Topology.edges topo)
  in
  let mean = List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs) in
  check_bool "mean near 0.62%" true (Float.abs (mean -. 0.0062) < 0.0015)

let test_sycamore_vary_flag () =
  let cal = Device.Sycamore.line_device ~vary:false 4 in
  (* without variation all types share the edge error *)
  let e1 = Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s1 in
  let e2 = Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s3 in
  let ef = Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.Fsim_family in
  check_float "s1 = s3" e1 e2;
  check_float "family too" e1 ef;
  let varied = Device.Sycamore.line_device ~vary:true 4 in
  let v1 = Device.Calibration.twoq_error varied (0, 1) Gates.Gate_type.s1 in
  let v2 = Device.Calibration.twoq_error varied (0, 1) Gates.Gate_type.s3 in
  check_bool "varies" true (Float.abs (v1 -. v2) > 1e-9)

let test_sycamore_durations () =
  (* the per-type duration table reaches both full and line devices *)
  List.iter
    (fun cal ->
      List.iter
        (fun (ty, d) ->
          check_float (Gates.Gate_type.name ty) d
            (Device.Calibration.twoq_duration cal (0, 1) (Gates.Gate_type.name ty)))
        Device.Sycamore.type_durations)
    [ Device.Sycamore.device (); Device.Sycamore.line_device 4 ]

(* sizes outside the line builder's range are input errors, worded like
   the service's width checks *)
let test_sycamore_line_range () =
  List.iter
    (fun k ->
      match Device.Sycamore.line_device k with
      | _ -> Alcotest.fail (Printf.sprintf "built a %d-qubit line" k)
      | exception Invalid_argument msg ->
        check_bool msg true (Astring.String.is_prefix ~affix:"qubits" msg))
    [ -1; 0; 1; 31 ];
  check_int "30 qubits" 30
    (Device.Topology.n_qubits (Device.Calibration.topology (Device.Sycamore.line_device 30)))

let test_sycamore_mu_override () =
  let cal = Device.Sycamore.line_device ~mu:0.0002 ~sigma:1e-5 ~oneq:3e-5 6 in
  let err = Device.Calibration.twoq_error cal (0, 1) Gates.Gate_type.s1 in
  check_bool "low error" true (err < 0.001);
  check_float "oneq" 3e-5 (Device.Calibration.oneq_error cal 0)

(* ---------- Device records and snapshots ---------- *)

let check_float_exact = Alcotest.(check (float 0.0))

(* every stored float of the committed golden snapshot must equal the
   registry builder bit for bit: a compile against the file is then
   guaranteed to reproduce a compile against `--device aspen8` *)
let test_golden_snapshot_matches_builder () =
  let golden = Device.of_file "golden/aspen8.json" in
  let built = Device.aspen8 () in
  Alcotest.(check string) "name" (Device.name built) (Device.name golden);
  check_int "qubits" (Device.n_qubits built) (Device.n_qubits golden);
  let module C = Device.Calibration in
  let a = Device.calibration golden and b = Device.calibration built in
  check_bool "edges" true
    (Device.Topology.edges (C.topology a) = Device.Topology.edges (C.topology b));
  check_bool "1q errors" true (C.oneq_errors a = C.oneq_errors b);
  check_bool "readout" true (C.readout_errors a = C.readout_errors b);
  check_bool "t1" true (C.t1_times a = C.t1_times b);
  check_bool "t2" true (C.t2_times a = C.t2_times b);
  check_float_exact "d1q" (C.duration_1q b) (C.duration_1q a);
  check_float_exact "d2q" (C.duration_2q b) (C.duration_2q a);
  check_bool "2q error table" true (C.twoq_error_entries a = C.twoq_error_entries b);
  check_bool "2q duration table" true
    (C.twoq_duration_entries a = C.twoq_duration_entries b)

(* a snapshot names its format: a file in the retired nuop-device/1
   format, which also stored a native gate set, is refused by version *)
let test_snapshot_old_schema_refused () =
  let golden =
    Njson.of_string (In_channel.with_open_text "golden/aspen8.json" In_channel.input_all)
  in
  let old =
    match golden with
    | Njson.Obj kvs ->
      Njson.Obj
        (List.map
           (fun (k, v) -> if k = "schema" then (k, Njson.String "nuop-device/1") else (k, v))
           kvs)
    | j -> j
  in
  match Device.of_string (Njson.to_string old) with
  | _ -> Alcotest.fail "a nuop-device/1 snapshot loaded"
  | exception Invalid_argument msg ->
    List.iter
      (fun version ->
        check_bool
          (Printf.sprintf "%s named in %s" version msg)
          true
          (Astring.String.is_infix ~affix:version msg))
      [ "nuop-device/1"; "nuop-device/2" ]

(* a snapshot is outside input: mutate one field of the golden file at a
   time (through its JSON text, so infinity travels as 1e999) and expect
   Invalid_argument naming that field *)
let test_snapshot_values_validated () =
  let golden =
    Njson.of_string (In_channel.with_open_text "golden/aspen8.json" In_channel.input_all)
  in
  let set field f = function
    | Njson.Obj kvs ->
      Njson.Obj (List.map (fun (k, v) -> if k = field then (k, f v) else (k, v)) kvs)
    | j -> j
  in
  let every x = function
    | Njson.List l -> Njson.List (List.map (fun _ -> Njson.Float x) l)
    | j -> j
  in
  let first x = function
    | Njson.List (_ :: rest) -> Njson.List (Njson.Float x :: rest)
    | j -> j
  in
  let drop_one = function Njson.List (_ :: rest) -> Njson.List rest | j -> j in
  let value x _ = Njson.Float x in
  (* the edge [0, 1] written as [0.3, 1.9], which truncates back to it *)
  let fractional_edge = function
    | Njson.List edges ->
      Njson.List
        (List.map
           (fun e ->
             if e = Njson.List [ Njson.Int 0; Njson.Int 1 ] then
               Njson.List [ Njson.Float 0.3; Njson.Float 1.9 ]
             else e)
           edges)
    | j -> j
  in
  let each f = function Njson.List l -> Njson.List (List.map f l) | j -> j in
  let append x = function Njson.List l -> Njson.List (l @ [ x ]) | j -> j in
  let repeat_first = function
    | Njson.List (x :: _ as l) -> Njson.List (l @ [ x ])
    | j -> j
  in
  let base a b =
    Njson.Obj
      [ ("edge", Njson.List [ Njson.Int a; Njson.Int b ]); ("error", Njson.Float 0.02) ]
  in
  let family field f = set "family" (set field f) in
  List.iter
    (fun (field, mutate) ->
      match Device.of_string (Njson.to_string (mutate golden)) with
      | _ -> Alcotest.fail (field ^ ": mutated snapshot loaded")
      | exception Invalid_argument msg ->
        check_bool
          (Printf.sprintf "%s named in %s" field msg)
          true
          (Astring.String.is_infix ~affix:(Printf.sprintf "%S" field) msg))
    [
      ("oneq_error", set "oneq_error" (every 1.5));
      ("oneq_error", set "oneq_error" (first (-0.01)));
      ("readout_error", set "readout_error" (first 1.0));
      ("t1", set "t1" (every (-5e-5)));
      ("t1", set "t1" drop_one);
      ("t2", set "t2" (first 0.0));
      ("t2", set "t2" (first neg_infinity));
      ("duration_1q", set "duration_1q" (value infinity));
      ("duration_2q", set "duration_2q" (value (-1e-9)));
      ("drifted_hours", set "provenance" (set "drifted_hours" (value infinity)));
      ("n_qubits", set "topology" (set "n_qubits" (value 8.7)));
      ("edges", set "topology" (set "edges" fractional_edge));
      ("base", family "base" (each (set "error" (value 5.0))));
      ("scale", family "scale" (value (-3.0)));
      ("scale", family "scale" (value 0.0));
      ("base", family "base" drop_one);
      ("base", family "base" (fun _ -> Njson.List []));
      ("base", family "base" (append (base 0 4)));
      ("base", family "base" (append (base 1 0)));
      ("twoq_error", set "twoq_error" repeat_first);
      ("twoq_duration", set "twoq_duration" repeat_first);
    ]

(* test_core's noiseless line, an ideal device (no decay, instantaneous
   gates), dumps to a snapshot that loads: infinite T1 and T2 travel as
   1e999 and zero durations as 0 *)
let test_snapshot_ideal_round_trip () =
  let topology = Device.Topology.line 3 in
  let edges = Device.Topology.edges topology in
  let cal =
    Device.Calibration.make ~topology ~oneq_error:[| 0.0; 0.0; 0.0 |]
      ~readout_error:[| 0.0; 0.0; 0.0 |]
      ~t1:[| infinity; infinity; infinity |]
      ~t2:[| infinity; infinity; infinity |]
      ~duration_1q:0.0 ~duration_2q:0.0
      ~twoq_error:
        (List.concat_map
           (fun e ->
             List.map
               (fun ty -> (e, Gates.Gate_type.name ty, 1e-6))
               (Isa.Set.gate_types Isa.Set.g2))
           edges)
      ~twoq_duration:[]
      ~family_base:(List.map (fun e -> (e, 1e-6)) edges)
      ()
  in
  let d =
    Device.v ~name:"ideal-line3" ~description:"noiseless 3-qubit line" ~calibration:cal
  in
  let text = Device.to_string d in
  check_bool "infinity written as 1e999" true
    (Astring.String.is_infix ~affix:"1e999" text);
  let loaded = Device.calibration (Device.of_string text) in
  check_float "t2" infinity (Device.Calibration.t2 loaded 1);
  check_float "duration_2q" 0.0 (Device.Calibration.duration_2q loaded);
  Alcotest.(check string) "dumps again byte for byte" text
    (Device.to_string (Device.of_string text))

let test_device_registry_lookup () =
  check_bool "case-insensitive" true
    (Option.is_some (Device.Registry.find "Aspen8"));
  check_bool "unknown" true (Option.is_none (Device.Registry.find "aspen9"));
  Alcotest.check_raises "find_exn lists names"
    (Invalid_argument
       "Device.Registry: unknown device \"aspen9\" (known: aspen8, sycamore, sycamore54)")
    (fun () -> ignore (Device.Registry.find_exn "aspen9"))

(* ---------- properties: snapshots against their laws ---------- *)

(* a registry device, randomly sized and randomly aged *)
let device_gen rng =
  let open Linalg in
  let names = Device.Registry.names () in
  let name = List.nth names (Rng.int rng (List.length names)) in
  let qubits = 4 + Rng.int rng 3 in
  let d = Device.Registry.build ~qubits name in
  if Rng.bool rng then
    let hours = Rng.uniform rng 1.0 72.0 in
    Calibration.Drift.perturb rng Calibration.Drift.default ~hours d
  else d

let print_device d =
  Printf.sprintf "%s (%d qubits, drifted %.2fh)" (Device.name d)
    (Device.n_qubits d)
    (Device.provenance d).Device.Provenance.drifted_hours

(* exact structural agreement of everything a snapshot stores *)
let same_cal a b =
  let module C = Device.Calibration in
  C.oneq_errors a = C.oneq_errors b
  && C.readout_errors a = C.readout_errors b
  && C.t1_times a = C.t1_times b
  && C.t2_times a = C.t2_times b
  && C.duration_1q a = C.duration_1q b
  && C.duration_2q a = C.duration_2q b
  && Device.Topology.edges (C.topology a) = Device.Topology.edges (C.topology b)
  && C.twoq_error_entries a = C.twoq_error_entries b
  && C.twoq_duration_entries a = C.twoq_duration_entries b
  && C.family_error_scale a = C.family_error_scale b
  && List.for_all
       (fun e -> C.family_base_error a e = C.family_base_error b e)
       (Device.Topology.edges (C.topology a))

let device_properties =
  [
    (* serialization against itself: every float a snapshot stores must
       survive to_string/of_string bit for bit *)
    Proptest.test "json snapshots round-trip exactly" ~count:10
      (Proptest.arbitrary ~print:print_device device_gen)
      (fun d ->
        let d' = Device.of_string (Device.to_string d) in
        Device.name d' = Device.name d
        && Device.n_qubits d' = Device.n_qubits d
        && (Device.provenance d').Device.Provenance.drifted_hours
           = (Device.provenance d).Device.Provenance.drifted_hours
        && same_cal (Device.calibration d) (Device.calibration d'));
    (* the registry is total over its own names, case-insensitively *)
    Proptest.test "registry builds every advertised name" ~count:5
      (Proptest.arbitrary ~print:Fun.id (fun rng ->
           let names = Device.Registry.names () in
           let name = List.nth names (Linalg.Rng.int rng (List.length names)) in
           String.map
             (fun c -> if Linalg.Rng.bool rng then Char.uppercase_ascii c else c)
             name))
      (fun name ->
        match Device.Registry.find name with
        | None -> false
        | Some e ->
          let d = e.Device.Registry.build e.Device.Registry.default_qubits in
          Device.n_qubits d > 0 && Device.name d <> "");
    (* drift is pure and only ever inflates: every stored error and the
       family scale gain a multiplier >= 1, hours accumulate, and the
       input snapshot is untouched *)
    Proptest.test "drift inflates errors monotonically" ~count:10
      (Proptest.arbitrary
         ~print:(fun (d, hours) -> Printf.sprintf "%s +%.2fh" (print_device d) hours)
         (Proptest.Gen.pair device_gen (Proptest.Gen.float_range 1.0 48.0)))
      (fun (d, hours) ->
        let module C = Device.Calibration in
        let before = C.twoq_error_entries (Device.calibration d) in
        let scale_before = C.family_error_scale (Device.calibration d) in
        let age_before = (Device.provenance d).Device.Provenance.drifted_hours in
        let d' =
          Calibration.Drift.perturb (Linalg.Rng.create 17) Calibration.Drift.default
            ~hours d
        in
        let after = C.twoq_error_entries (Device.calibration d') in
        List.length before = List.length after
        && List.for_all2
             (fun (ea, na, va) (eb, nb, vb) -> ea = eb && na = nb && vb >= va -. 1e-15)
             before after
        && C.family_error_scale (Device.calibration d') >= scale_before
        && Float.abs
             ((Device.provenance d').Device.Provenance.drifted_hours -. (age_before +. hours))
           <= 1e-12
        && C.twoq_error_entries (Device.calibration d) = before
        && C.family_error_scale (Device.calibration d) = scale_before);
  ]

let () =
  Alcotest.run "device"
    [
      ( "topology",
        [
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "disconnected" `Quick test_path_disconnected;
          Alcotest.test_case "find_line" `Quick test_find_line;
          Alcotest.test_case "validation" `Quick test_of_edges_validation;
          Alcotest.test_case "canonical" `Quick test_canonical;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "set/get" `Quick test_calibration_set_get;
          Alcotest.test_case "missing raises" `Quick test_calibration_missing_raises;
          Alcotest.test_case "non-edge raises" `Quick test_calibration_non_edge_raises;
          Alcotest.test_case "family errors" `Quick test_calibration_family;
          Alcotest.test_case "error scaling" `Quick test_calibration_error_scale;
          Alcotest.test_case "make validates tables" `Quick test_calibration_make_validates;
          Alcotest.test_case "make checks qubits and durations" `Quick
            test_calibration_make_checks_qubits;
          Alcotest.test_case "derived snapshots independent" `Quick
            test_calibration_derived_independent;
          Alcotest.test_case "map keeps fold order" `Quick test_calibration_map_keeps_order;
          Alcotest.test_case "per-type durations" `Quick test_calibration_durations;
          Alcotest.test_case "accessors" `Quick test_calibration_accessors;
        ] );
      ( "aspen8",
        [
          Alcotest.test_case "table matches device" `Quick test_aspen_table_matches_device;
          Alcotest.test_case "duration table" `Quick test_aspen_durations;
          Alcotest.test_case "best gate varies" `Quick test_aspen_best_varies;
          Alcotest.test_case "xy fidelity band" `Quick test_aspen_xy_band;
          Alcotest.test_case "deterministic" `Quick test_aspen_deterministic;
        ] );
      ( "sycamore",
        [
          Alcotest.test_case "error distribution" `Quick test_sycamore_distribution;
          Alcotest.test_case "vary flag" `Quick test_sycamore_vary_flag;
          Alcotest.test_case "duration table" `Quick test_sycamore_durations;
          Alcotest.test_case "mu override" `Quick test_sycamore_mu_override;
          Alcotest.test_case "line range" `Quick test_sycamore_line_range;
        ] );
      ( "device",
        [
          Alcotest.test_case "golden snapshot" `Quick test_golden_snapshot_matches_builder;
          Alcotest.test_case "snapshot values validated" `Quick
            test_snapshot_values_validated;
          Alcotest.test_case "ideal snapshot round-trips" `Quick
            test_snapshot_ideal_round_trip;
          Alcotest.test_case "old snapshot schema refused" `Quick
            test_snapshot_old_schema_refused;
          Alcotest.test_case "registry lookup" `Quick test_device_registry_lookup;
        ]
        @ device_properties );
    ]
