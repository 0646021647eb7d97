(* The telemetry subsystem (lib/obs): clock formatting, leveled logging
   with warn-once, the counter registry, span nesting through an
   in-memory sink, the nuop-trace/1 validator, Domain-pool stress, the
   repo-wide grep ban on raw timers/stderr outside lib/obs, and the
   telemetry properties against the trace validator. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ---------- Clock: UTC formatters (BENCH_<date>.json stamps) ---------- *)

(* Artifact names must not depend on the machine's timezone: the
   formatters go through gmtime, so known epochs map to known strings on
   every box. *)
let test_utc_date () =
  check_string "epoch" "1970-01-01" (Obs.Clock.utc_date 0.0);
  check_string "last second of day one" "1970-01-01" (Obs.Clock.utc_date 86399.0);
  check_string "first second of day two" "1970-01-02" (Obs.Clock.utc_date 86400.0);
  check_string "one gigasecond" "2001-09-09" (Obs.Clock.utc_date 1e9)

let test_utc_timestamp () =
  check_string "epoch" "1970-01-01T00:00:00Z" (Obs.Clock.utc_timestamp 0.0);
  check_string "one gigasecond" "2001-09-09T01:46:40Z" (Obs.Clock.utc_timestamp 1e9)

(* ---------- levels ---------- *)

let test_level_parsing () =
  let parses s expected =
    check_bool s true (Obs.level_of_string s = expected)
  in
  parses "error" (Some Obs.Error);
  parses "warn" (Some Obs.Warn);
  parses "WARNING" (Some Obs.Warn);
  parses " Info " (Some Obs.Info);
  parses "debug" (Some Obs.Debug);
  parses "bogus" None;
  parses "" None;
  (* names round-trip *)
  List.iter
    (fun l -> check_bool (Obs.level_name l) true (Obs.level_of_string (Obs.level_name l) = Some l))
    [ Obs.Error; Obs.Warn; Obs.Info; Obs.Debug ]

(* ---------- Log: capture, filtering, warn-once ---------- *)

(* Swap the output writer for a buffer, run [f], restore everything the
   test touched (writer, level, once-keys). *)
let with_captured_log f =
  let lines = ref [] in
  Obs.Log.set_output (fun line -> lines := line :: !lines);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.reset_output ();
      Obs.Log.set_level Obs.Warn;
      Obs.Log.reset_once ())
    (fun () ->
      f ();
      List.rev !lines)

let test_log_verbatim () =
  let lines =
    with_captured_log (fun () -> Obs.Log.warn "nuop: something %s happened" "odd")
  in
  (* messages pass through byte for byte — callers own the "nuop: "
     prefix, so refactored warnings keep their exact historical bytes *)
  check_bool "one line" true (List.length lines = 1);
  check_string "verbatim" "nuop: something odd happened" (List.hd lines)

let test_log_level_filter () =
  let lines =
    with_captured_log (fun () ->
        Obs.Log.info "hidden at default level";
        Obs.Log.warn "warn shows";
        Obs.Log.set_level Obs.Error;
        Obs.Log.warn "warn now hidden";
        Obs.Log.error "error always shows";
        Obs.Log.set_level Obs.Debug;
        Obs.Log.debug "debug shows at debug")
  in
  check_bool "filtered" true
    (lines = [ "warn shows"; "error always shows"; "debug shows at debug" ])

let test_warn_once () =
  let lines =
    with_captured_log (fun () ->
        Obs.Log.warn_once ~key:"k1" "first k1";
        Obs.Log.warn_once ~key:"k1" "second k1 (suppressed)";
        Obs.Log.warn_once ~key:"k2" "first k2";
        Obs.Log.reset_once ();
        Obs.Log.warn_once ~key:"k1" "k1 after reset")
  in
  check_bool "once per key, reset re-arms" true
    (lines = [ "first k1"; "first k2"; "k1 after reset" ])

(* ---------- counters ---------- *)

let test_counter_registry () =
  let a = Obs.Counter.create "test.obs.counter" in
  let b = Obs.Counter.create "test.obs.counter" in
  Obs.Counter.reset a;
  Obs.Counter.incr a;
  Obs.Counter.add b 4;
  (* idempotent create: both handles share one cell *)
  check_int "shared cell" 5 (Obs.Counter.get a);
  check_bool "registered" true
    (List.mem_assoc "test.obs.counter" (Obs.Counter.all ()));
  Obs.Counter.reset a;
  check_int "reset" 0 (Obs.Counter.get b)

(* ---------- spans through an in-memory sink ---------- *)

let with_memory_sink f =
  let events = ref [] in
  Obs.Sink.install
    { Obs.Sink.emit = (fun ev -> events := ev :: !events); flush = (fun () -> ()) };
  Fun.protect
    ~finally:(fun () -> Obs.Sink.uninstall ())
    (fun () ->
      f ();
      List.rev !events)

let test_span_nesting () =
  let events =
    with_memory_sink (fun () ->
        Obs.Span.with_ "outer" (fun () ->
            Obs.Span.with_ "inner" (fun () -> ());
            Obs.Span.with_ ~attrs:[ ("k", "v") ] "sibling" (fun () -> ())))
  in
  match events with
  | [
   Obs.Span_start { id = o; parent = None; name = "outer"; _ };
   Obs.Span_start { id = i; parent = Some po; name = "inner"; _ };
   Obs.Span_end { id = i'; name = "inner"; _ };
   Obs.Span_start { id = s; parent = Some ps; name = "sibling"; _ };
   Obs.Span_end { id = s'; name = "sibling"; attrs = [ ("k", "v") ]; _ };
   Obs.Span_end { id = o'; name = "outer"; elapsed; _ };
  ] ->
    check_bool "ids pair up" true (i = i' && s = s' && o = o');
    check_bool "children point at outer" true (po = o && ps = o);
    check_bool "ids distinct and positive" true (o > 0 && i > 0 && s > 0 && i <> s);
    check_bool "elapsed non-negative" true (elapsed >= 0.0)
  | _ -> Alcotest.failf "unexpected event sequence (%d events)" (List.length events)

let test_untraced_span_is_free () =
  (* no sink installed: spans still time, but allocate no ids and emit
     nothing *)
  let s = Obs.Span.enter "untraced" in
  check_int "null-sink id" 0 s.Obs.Span.id;
  check_bool "elapsed works" true (Obs.Span.exit s >= 0.0);
  check_bool "no current span" true (Obs.Span.current () = None)

(* ---------- trace validator on handcrafted files ---------- *)

let meta = {|{"ev":"meta","schema":"nuop-trace/1","t":0.0}|}
let start_a = {|{"ev":"start","id":1,"parent":null,"dom":0,"name":"a","t":0.0}|}
let start_b = {|{"ev":"start","id":2,"parent":1,"dom":0,"name":"b","t":0.1}|}
let end_b = {|{"ev":"end","id":2,"dom":0,"name":"b","t":0.2,"dur":0.1}|}
let end_a = {|{"ev":"end","id":1,"dom":0,"name":"a","t":0.3,"dur":0.3}|}
let count_c = {|{"ev":"count","name":"c","value":3,"t":0.3}|}

let trace lines = String.concat "\n" lines ^ "\n"

let test_check_accepts_good_trace () =
  match Obs.Trace.check_string (trace [ meta; start_a; start_b; end_b; end_a; count_c ]) with
  | Ok s ->
    check_int "events" 6 s.Obs.Trace.events;
    check_int "spans" 2 s.Obs.Trace.spans;
    check_int "max depth" 2 s.Obs.Trace.max_depth;
    check_int "counters" 1 s.Obs.Trace.counters
  | Error reason -> Alcotest.failf "good trace rejected: %s" reason

let test_check_rejects_corruption () =
  let rejected name lines =
    match Obs.Trace.check_string (trace lines) with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error reason -> check_bool name true (String.length reason > 0)
  in
  rejected "missing meta" [ start_a; end_a ];
  rejected "wrong schema" [ {|{"ev":"meta","schema":"nuop-trace/999","t":0.0}|}; start_a; end_a ];
  rejected "garbage line" [ meta; start_a; "not json at all"; end_a ];
  rejected "dropped end (unbalanced)" [ meta; start_a; start_b; end_b ];
  rejected "end without start" [ meta; end_a ];
  rejected "out-of-order ends" [ meta; start_a; start_b; end_a; end_b ];
  rejected "duplicate span id" [ meta; start_a; end_a; start_a; end_a ];
  rejected "unknown event" [ meta; {|{"ev":"frob","t":0.0}|} ];
  rejected "empty" []

(* ---------- Domain-pool stress: counters exact, spans well-formed ---------- *)

let test_pool_counter_totals () =
  let c = Obs.Counter.create "test.obs.pool" in
  Obs.Counter.reset c;
  let tasks = 32 and per_task = 250 in
  ignore
    (Concurrent.Domain_pool.map_array ~domains:4
       (fun _ ->
         for _ = 1 to per_task do
           Obs.Counter.incr c
         done)
       (Array.init tasks Fun.id));
  check_int "no lost increments" (tasks * per_task) (Obs.Counter.get c)

let test_pool_spans_validate () =
  Proptest.with_temp_file (fun file ->
      let tasks = 16 in
      Obs.Trace.with_file file (fun () ->
          ignore
            (Concurrent.Domain_pool.map_array ~domains:4
               (fun i -> i * i)
               (Array.init tasks Fun.id)));
      (match Obs.Trace.check_file file with
      | Ok s ->
        (* one pool.map plus one pool.task per item *)
        check_int "spans" (tasks + 1) s.Obs.Trace.spans
      | Error reason -> Alcotest.failf "pool trace rejected: %s" reason);
      (* the cross-domain relation lives in the parent field (each
         worker domain's own stack is flat): every pool.task start must
         name the pool.map span as its parent *)
      let objs =
        In_channel.with_open_text file In_channel.input_lines
        |> List.map Njson.of_string
      in
      let name_of j = Njson.member "name" j in
      let starts name =
        List.filter
          (fun j ->
            Njson.member "ev" j = Some (Njson.String "start")
            && name_of j = Some (Njson.String name))
          objs
      in
      let map_id =
        match starts "pool.map" with
        | [ j ] -> Njson.member "id" j
        | l -> Alcotest.failf "expected one pool.map span, got %d" (List.length l)
      in
      let task_starts = starts "pool.task" in
      check_int "one task span per item" tasks (List.length task_starts);
      check_bool "tasks parent on pool.map" true
        (List.for_all (fun j -> Njson.member "parent" j = map_id) task_starts))

(* ---------- repo-wide invariant: instrumentation only via Obs ----------

   Raw wall/CPU clocks and direct stderr printing live in lib/obs and
   nowhere else; everything above it takes spans, counters and Obs.Log.
   Sources are scanned as copied into _build next to this test's cwd. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ml_files dir =
  match Sys.is_directory dir with
  | true ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (Filename.concat dir)
  | false | (exception Sys_error _) -> []

let test_no_raw_instrumentation () =
  let lib_dirs =
    match Sys.readdir "../lib" with
    | entries ->
      Array.to_list entries
      |> List.filter (fun d -> d <> "obs")
      |> List.map (Filename.concat "../lib")
    | exception Sys_error _ -> []
  in
  let files = List.concat_map ml_files (lib_dirs @ [ "../bin"; "../examples" ]) in
  check_bool "scanned a real source tree" true (List.length files > 30);
  let banned = [ "Unix.gettimeofday"; "Sys.time"; "Unix.localtime"; "Printf.eprintf" ] in
  let offenders =
    List.filter
      (fun f ->
        let s = read_file f in
        List.exists (fun affix -> Astring.String.is_infix ~affix s) banned)
      files
  in
  Alcotest.(check (list string)) "no raw timers or stderr outside lib/obs" [] offenders

(* ---------- properties: telemetry against its own trace validator ---------- *)

module G = Proptest.Gen

(* a random span-nesting shape: each node is one [Obs.Span.with_] call
   wrapping its children *)
type span_shape = Node of span_shape list

let rec shape_size (Node kids) =
  1 + List.fold_left (fun acc k -> acc + shape_size k) 0 kids

let rec print_shape (Node kids) =
  Printf.sprintf "(%s)" (String.concat " " (List.map print_shape kids))

let rec span_shape_gen depth rng =
  let width = if depth <= 0 then 0 else Linalg.Rng.int rng 4 in
  Node (List.init width (fun _ -> span_shape_gen (depth - 1) rng))

let rec build_spans depth (Node kids) =
  Obs.Span.with_
    (Printf.sprintf "test.node.d%d" depth)
    (fun () -> List.iter (build_spans (depth + 1)) kids)

let obs_properties =
  [
    (* structural law: a tree of [with_] calls produces a trace the
       validator accepts, with exactly one completed span per node *)
    Proptest.test "span trees validate with exact span counts" ~count:20
      (Proptest.arbitrary ~print:print_shape (span_shape_gen 3))
      (fun shape ->
        Proptest.with_temp_file (fun file ->
            Obs.Trace.with_file file (fun () -> build_spans 0 shape);
            match Obs.Trace.check_file file with
            | Ok s -> s.Obs.Trace.spans = shape_size shape
            | Error _ -> false));
    (* atomicity: concurrent increments from Domain-pool workers are
       never lost — the counter total is exactly tasks * per_task *)
    Proptest.test "counter sums are exact across domains" ~count:10
      (Proptest.arbitrary
         ~print:(fun (tasks, per) -> Printf.sprintf "%d tasks x %d incrs" tasks per)
         (G.pair (G.int_range 1 24) (G.int_range 1 200)))
      (fun (tasks, per) ->
        let c = Obs.Counter.create "test.obs.hits" in
        Obs.Counter.reset c;
        ignore
          (Concurrent.Domain_pool.map_array ~domains:4
             (fun _ ->
               for _ = 1 to per do
                 Obs.Counter.incr c
               done)
             (Array.init tasks Fun.id));
        Obs.Counter.get c = tasks * per);
    (* serialization round trip: every line of a trace parses through
       Njson and re-emits byte for byte (canonical compact form) *)
    Proptest.test "trace lines round-trip through Njson" ~count:10
      (Proptest.arbitrary ~print:print_shape (span_shape_gen 2))
      (fun shape ->
        Proptest.with_temp_file (fun file ->
            Obs.Trace.with_file file (fun () -> build_spans 0 shape);
            In_channel.with_open_text file In_channel.input_lines
            |> List.for_all (fun line ->
                   Njson.to_string ~indent:0 (Njson.of_string line) = line)));
    (* observer effect: compiling under an active trace sink yields the
       same compiled program as compiling with the null sink, and the
       trace it writes passes the validator *)
    Proptest.test "tracing never changes the compiled circuit" ~count:2
      (Proptest.circuit ~n_qubits:3 ~max_length:8 ())
      (fun circuit ->
        Proptest.with_temp_file (fun file ->
            let options =
              { Compiler.Pipeline.default_options with nuop = Proptest.fast_nuop }
            in
            let device = Device.sycamore_line 4 in
            let isa = Isa.Set.g2 in
            Decompose.Cache.clear ();
            let plain = Compiler.Pipeline.compile ~options ~device ~isa circuit in
            Decompose.Cache.clear ();
            let traced =
              Obs.Trace.with_file file (fun () ->
                  Compiler.Pipeline.compile ~options ~device ~isa circuit)
            in
            Proptest.same_compiled plain traced
            &&
            match Obs.Trace.check_file file with Ok _ -> true | Error _ -> false));
  ]

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "utc_date" `Quick test_utc_date;
          Alcotest.test_case "utc_timestamp" `Quick test_utc_timestamp;
        ] );
      ( "log",
        [
          Alcotest.test_case "level parsing" `Quick test_level_parsing;
          Alcotest.test_case "verbatim bytes" `Quick test_log_verbatim;
          Alcotest.test_case "level filter" `Quick test_log_level_filter;
          Alcotest.test_case "warn once" `Quick test_warn_once;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter registry" `Quick test_counter_registry;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and parents" `Quick test_span_nesting;
          Alcotest.test_case "untraced spans are free" `Quick test_untraced_span_is_free;
        ] );
      ( "trace",
        [
          Alcotest.test_case "accepts a good trace" `Quick test_check_accepts_good_trace;
          Alcotest.test_case "rejects corruption" `Quick test_check_rejects_corruption;
        ] );
      ( "pool",
        [
          Alcotest.test_case "counter totals exact" `Quick test_pool_counter_totals;
          Alcotest.test_case "spans validate" `Quick test_pool_spans_validate;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "no raw instrumentation" `Quick test_no_raw_instrumentation;
        ] );
      ("obs", obs_properties);
    ]
