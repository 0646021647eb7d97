(* Integration tests: the experiment machinery end-to-end at tiny scale,
   plus the Njson and report round-trip properties. *)

open Linalg

let check_bool = Alcotest.(check bool)

let tiny_nuop = { Decompose.Nuop.default_options with starts = 2 }

let tiny_options = { Compiler.Pipeline.default_options with nuop = tiny_nuop }

let test_config_scales () =
  check_bool "paper > quick" true Core.Config.(paper.qv_count > quick.qv_count);
  check_bool "grid 19" true (Core.Config.paper.Core.Config.fig8_grid = 19)

let test_study_qv_hop () =
  let rng = Rng.create 31 in
  let device = Device.sycamore_line 4 in
  let circuits = Apps.Qv.circuits rng ~count:2 3 in
  let r =
    Core.Study.evaluate_suite ~options:tiny_options ~device ~isa:Isa.Set.g2
      ~metric:Core.Study.Hop circuits
  in
  check_bool "hop plausible" true
    (r.Core.Study.mean_metric > 0.3 && r.Core.Study.mean_metric <= 1.0);
  check_bool "gates counted" true (r.Core.Study.mean_twoq > 0.0)

let test_study_metrics_distinct () =
  let rng = Rng.create 32 in
  let device = Device.sycamore_line 4 in
  let circuit = Apps.Qaoa.circuit rng 3 in
  let e =
    Core.Study.evaluate_circuit ~options:tiny_options ~device ~isa:Isa.Set.s3
      ~metric:Core.Study.Xed circuit
  in
  check_bool "xed bounded" true (e.Core.Study.value <= 1.0 +. 1e-9);
  check_bool "duration positive" true (e.Core.Study.duration > 0.0);
  check_bool "esp in (0, 1]" true
    (e.Core.Study.esp > 0.0 && e.Core.Study.esp <= 1.0)

let test_study_state_fidelity_noiseless () =
  (* with an ideal device the QFT success metric must be ~1 *)
  let topology = Device.Topology.line 3 in
  let cal =
    Device.Calibration.make ~topology ~oneq_error:[| 0.0; 0.0; 0.0 |]
      ~readout_error:[| 0.0; 0.0; 0.0 |]
      ~t1:[| infinity; infinity; infinity |]
      ~t2:[| infinity; infinity; infinity |]
      ~duration_1q:0.0 ~duration_2q:0.0
      ~family_error:(fun _ _ -> 1e-6)
      ()
  in
  List.iter
    (fun e ->
      List.iter
        (fun ty -> Device.Calibration.set_twoq_error cal e ty 1e-6)
        (Isa.Set.gate_types Isa.Set.g2))
    (Device.Topology.edges topology);
  let device =
    Device.v ~name:"ideal-line3" ~description:"noiseless 3-qubit line"
      ~calibration:cal ~native_isa:Isa.Set.g2 ()
  in
  let circuit = Apps.Qft.circuit 3 in
  let e =
    Core.Study.evaluate_circuit ~options:tiny_options ~device ~isa:Isa.Set.g2
      ~metric:Core.Study.State_fidelity circuit
  in
  check_bool "near 1" true (e.Core.Study.value > 0.99)

let test_multi_gate_sets_not_worse () =
  (* the headline claim at tiny scale: a multi-type set is at least as
     good as the single-type sets it contains, on average *)
  let rng = Rng.create 33 in
  let device = Device.aspen8 () in
  let circuits = Apps.Qaoa.circuits rng ~count:3 3 in
  let eval isa =
    (Core.Study.evaluate_suite ~options:tiny_options ~device ~isa
       ~metric:Core.Study.Xed circuits)
      .Core.Study.mean_metric
  in
  let r1 = eval Isa.Set.r1 in
  let s3 = eval Isa.Set.s3 in
  let s4 = eval Isa.Set.s4 in
  check_bool "r1 >= min(s3, s4)" true (r1 >= Float.min s3 s4 -. 0.05)

let test_swap_native_instruction_reduction () =
  (* R5's native SWAP must reduce two-qubit counts vs R4 on routed
     workloads — the Fig 9/10 mechanism *)
  let rng = Rng.create 34 in
  let device = Device.aspen8 () in
  let circuits = Apps.Qv.circuits rng ~count:2 4 in
  let gates isa =
    (Core.Study.evaluate_suite ~options:tiny_options ~device ~isa
       ~metric:Core.Study.Hop circuits)
      .Core.Study.mean_twoq
  in
  check_bool "r5 < r4 gates" true (gates Isa.Set.r5 < gates Isa.Set.r4)

(* ---------- document model ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let test_fig11_golden () =
  (* the text renderer must reproduce the pre-document printed output
     byte for byte (fig11 is deterministic: no wall-clock in its body) *)
  let doc = Core.Fig11.doc ~cfg:Core.Config.quick () in
  let expected = read_file "golden/fig11_quick.txt" in
  Alcotest.(check string) "byte-identical" expected (Core.Report.render_text doc)

let test_json_roundtrip () =
  (* render -> parse -> re-render must be a fixed point, and the parsed
     tree must agree with the original *)
  List.iter
    (fun name ->
      let e = Option.get (Core.Registry.find name) in
      let json =
        Core.Report.to_json ~name ~description:e.Core.Registry.description
          ~seconds:1.25 (e.Core.Registry.run Core.Config.quick)
      in
      let s = Njson.to_string json in
      let reparsed = Njson.of_string s in
      check_bool (name ^ " tree preserved") true (reparsed = json);
      Alcotest.(check string) (name ^ " fixed point") s (Njson.to_string reparsed))
    [ "table2"; "fig3"; "fig11" ];
  (* the nuop-bench/1 artifact: written, re-parsed, checked total *)
  let empty = { Core.Report.blocks = []; metrics = [] } in
  let runs =
    List.map
      (fun entry -> { Core.Artifact.entry; doc = empty; seconds = 0.5 })
      Core.Registry.all
  in
  let text = Core.Artifact.to_string ~scale:"quick" runs in
  (match Njson.of_string_result text with
  | Error e -> Alcotest.fail ("artifact does not re-parse: " ^ e)
  | Ok json ->
    let field k = Njson.member k json in
    check_bool "schema" true (field "schema" = Some (Njson.String "nuop-bench/1"));
    check_bool "date" true
      (match field "date" with
      | Some (Njson.String d) -> String.length d = 10
      | _ -> false);
    check_bool "scale" true (field "scale" = Some (Njson.String "quick"));
    let entries = Option.get (Option.bind (field "experiments") Njson.to_list) in
    Alcotest.(check int) "16 entries" 16 (List.length entries);
    check_bool "every entry has seconds" true
      (List.for_all (fun e -> Njson.member "seconds" e = Some (Njson.Float 0.5)) entries));
  Alcotest.(check (result int string)) "checker accepts" (Ok 16) (Core.Artifact.check text);
  (match
     Core.Artifact.check
       (Core.Artifact.to_string ~scale:"quick"
          (List.filter (fun r -> r.Core.Artifact.entry.Core.Registry.name <> "fig7") runs))
   with
  | Ok _ -> Alcotest.fail "accepted an artifact without fig7"
  | Error msg ->
    check_bool ("names fig7: " ^ msg) true (Astring.String.is_infix ~affix:"fig7" msg));
  check_bool "unparsable text refused" true
    (Result.is_error (Core.Artifact.check "{\"schema\": \"nuop-bench/1\""))

let test_json_escapes () =
  let j = Njson.(Obj [ ("k\"ey", String "a\nb\tc\\ \x01") ]) in
  check_bool "roundtrip" true (Njson.of_string (Njson.to_string j) = j)

let test_registry_complete () =
  Alcotest.(check int) "16 experiments" 16 (List.length Core.Registry.all);
  check_bool "names unique" true
    (List.length (List.sort_uniq compare Core.Registry.names)
    = List.length Core.Registry.names);
  check_bool "find fig9" true (Option.is_some (Core.Registry.find "fig9"));
  check_bool "find design" true (Option.is_some (Core.Registry.find "design"));
  check_bool "find drift" true (Option.is_some (Core.Registry.find "drift"));
  check_bool "find unknown" true (Option.is_none (Core.Registry.find "fig99"));
  let selected names = List.map (fun e -> e.Core.Registry.name) (Core.Registry.select names) in
  Alcotest.(check (list string)) "all is the registry, in order" Core.Registry.names
    (selected [ "all" ]);
  Alcotest.(check (list string)) "any case, in the caller's order"
    [ "fig9"; "table1"; "drift" ]
    (selected [ "FIG9"; "Table1"; "drift" ])

(* ---------- parallel evaluation ---------- *)

let test_parallel_map_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "order preserved"
    (List.map (fun x -> x * x) xs)
    (Concurrent.Domain_pool.map ~domains:4 (fun x -> x * x) xs)

let test_evaluate_suite_pool_invariant () =
  (* the acceptance criterion: identical result records at pool size 1
     and N on a small QV suite *)
  let rng = Rng.create 35 in
  let device = Device.sycamore_line 4 in
  let circuits = Apps.Qv.circuits rng ~count:3 3 in
  let eval domains =
    Decompose.Cache.clear ();
    Core.Study.evaluate_suite ~options:tiny_options ~domains ~device
      ~isa:Isa.Set.g2 ~metric:Core.Study.Hop circuits
  in
  let seq = eval 1 in
  List.iter
    (fun domains ->
      let par = eval domains in
      check_bool
        (Printf.sprintf "identical records at %d domains" domains)
        true (par = seq))
    [ 2; 4 ]

let test_report_table_shapes () =
  (* columns pad to the widest cell plus two spaces, header ruled *)
  Alcotest.(check string)
    "rendered" "a    bb  \n---  --  \n1    2   \n333  4   \n"
    (Core.Report.block_to_string
       (Core.Report.Table { header = [ "a"; "bb" ]; rows = [ [ "1"; "2" ]; [ "333"; "4" ] ] }))

let test_report_heat_digit () =
  Alcotest.(check string) "clamps" "9" (Core.Report.heat_digit 15.0);
  Alcotest.(check string) "rounds" "3" (Core.Report.heat_digit 2.6);
  Alcotest.(check string) "nan" "." (Core.Report.heat_digit Float.nan)

(* ---------- properties: the serializers against their own round trips ---------- *)

let json_leaf rng =
  match Rng.int rng 5 with
  | 0 -> Njson.Null
  | 1 -> Njson.Bool (Rng.bool rng)
  | 2 -> Njson.Int (Rng.int rng 2_000_001 - 1_000_000)
  | 3 -> Njson.Float (Rng.uniform rng (-1e6) 1e6 *. Float.exp (Rng.uniform rng (-20.0) 5.0))
  | _ ->
    Njson.String
      (String.init (Rng.int rng 12) (fun _ -> Char.chr (32 + Rng.int rng 95)))

let rec json_gen depth rng =
  if depth = 0 || Rng.int rng 3 = 0 then json_leaf rng
  else
    match Rng.bool rng with
    | true -> Njson.List (List.init (Rng.int rng 4) (fun _ -> json_gen (depth - 1) rng))
    | false ->
      Njson.Obj
        (List.init (Rng.int rng 4) (fun i ->
             (Printf.sprintf "k%d" i, json_gen (depth - 1) rng)))

let report_gen rng =
  let b = Core.Report.Builder.create () in
  Core.Report.Builder.heading b "generated";
  Core.Report.Builder.table b
    ~header:[ "x"; "y" ]
    (List.init (Rng.int rng 4) (fun i ->
         [ string_of_int i; Core.Report.f3 (Rng.uniform rng (-10.0) 10.0) ]));
  let axis n = List.init n float_of_int in
  Core.Report.Builder.heatmap b
    ~theta_axis:(axis (1 + Rng.int rng 3))
    ~phi_axis:(axis (1 + Rng.int rng 5))
    ~cell:(fun ~theta:_ ~phi:_ -> Rng.uniform rng 0.0 1.0);
  Core.Report.Builder.metric b "score" (Rng.uniform rng 0.0 1.0);
  Core.Report.Builder.doc b

let roundtrip_properties =
  [
    Proptest.test "json trees round-trip" ~count:40
      (Proptest.arbitrary ~print:(fun j -> Njson.to_string j) (json_gen 3))
      (fun j -> Njson.of_string (Njson.to_string j) = j);
    Proptest.test "report documents round-trip through json" ~count:10
      (Proptest.arbitrary
         ~print:(fun doc -> Njson.to_string (Core.Report.to_json doc))
         report_gen)
      (fun doc ->
        let j = Core.Report.to_json ~name:"prop" ~seconds:0.0 doc in
        Njson.of_string (Njson.to_string j) = j);
  ]

let () =
  Alcotest.run "core"
    [
      ("config", [ Alcotest.test_case "scales" `Quick test_config_scales ]);
      ( "study",
        [
          Alcotest.test_case "qv hop" `Quick test_study_qv_hop;
          Alcotest.test_case "xed bounded" `Quick test_study_metrics_distinct;
          Alcotest.test_case "noiseless success ~ 1" `Quick test_study_state_fidelity_noiseless;
        ] );
      ( "integration",
        [
          Alcotest.test_case "multi-set not worse" `Slow test_multi_gate_sets_not_worse;
          Alcotest.test_case "native SWAP reduction" `Slow test_swap_native_instruction_reduction;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table_shapes;
          Alcotest.test_case "heat digit" `Quick test_report_heat_digit;
        ] );
      ( "document",
        [
          Alcotest.test_case "fig11 golden text" `Slow test_fig11_golden;
          Alcotest.test_case "json roundtrip" `Slow test_json_roundtrip;
          Alcotest.test_case "json escapes" `Quick test_json_escapes;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map preserves order" `Quick test_parallel_map_order;
          Alcotest.test_case "evaluate_suite pool invariant" `Slow
            test_evaluate_suite_pool_invariant;
        ] );
      ("roundtrip", roundtrip_properties);
    ]
