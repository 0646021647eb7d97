(* The resident compilation service (lib/service): protocol parsing and
   rendering, the bounded queue, monotonic deadlines, the server engine
   (injected executors: failures, drain refusals), and the satellite
   fixes that ride with it — Njson.of_string_result line/column errors,
   case-insensitive experiment lookup, fresh_path clobber avoidance, the
   CLI's device resolution — and the server's properties (pool-size invariance, backpressure,
   deadlines). *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ---------- Njson.of_string_result (boundary parsing) ---------- *)

let test_of_string_result_ok () =
  match Njson.of_string_result "{\"a\": [1, 2.5, null, true]}" with
  | Ok (Njson.Obj [ ("a", Njson.List _) ]) -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong shape"
  | Error e -> Alcotest.fail e

let test_of_string_result_locates_errors () =
  let expect_located s =
    match Njson.of_string_result s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
    | Error msg ->
      let has needle =
        Astring.String.is_infix ~affix:needle msg
      in
      check_bool
        (Printf.sprintf "%S error mentions line and column (%s)" s msg)
        true
        (has "line " && has "column ")
  in
  expect_located "{\"a\": }";
  expect_located "[1, 2";
  expect_located "{\n  \"a\": 1,\n  \"b\": oops\n}";
  expect_located "nope"

let test_of_string_result_multiline_position () =
  (* the broken token sits on line 3 *)
  match Njson.of_string_result "{\n  \"a\": 1,\n  \"b\": oops\n}" with
  | Ok _ -> Alcotest.fail "parsed"
  | Error msg ->
    check_bool
      (Printf.sprintf "mentions line 3 (%s)" msg)
      true
      (Astring.String.is_infix ~affix:"line 3" msg)

(* ---------- Registry: case-insensitive lookup ---------- *)

let test_registry_case_insensitive () =
  match Core.Registry.names with
  | [] -> Alcotest.fail "empty registry"
  | name :: _ ->
    let shout = String.uppercase_ascii name in
    (match Core.Registry.find shout with
    | Some e -> check_string "same entry" name e.Core.Registry.name
    | None -> Alcotest.fail (Printf.sprintf "find %S missed" shout));
    (match Core.Registry.find (String.capitalize_ascii name) with
    | Some e -> check_string "capitalized" name e.Core.Registry.name
    | None -> Alcotest.fail "capitalized lookup missed")

let test_registry_miss_lists_names () =
  match Core.Registry.select [ "fig3"; "definitely-not-an-experiment" ] with
  | _ -> Alcotest.fail "selected a bogus experiment"
  | exception Invalid_argument msg ->
    check_int "16 experiments" 16 (List.length Core.Registry.names);
    List.iter
      (fun n ->
        check_bool
          (Printf.sprintf "miss message lists %s" n)
          true
          (Astring.String.is_infix ~affix:n msg))
      Core.Registry.names

(* ---------- Report.fresh_path (artifact clobber fix) ---------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "nuop-dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_fresh_path () =
  with_temp_dir (fun dir ->
      let base = Filename.concat dir "BENCH_2026-01-01.json" in
      check_string "free path is untouched" base (Core.Report.fresh_path base);
      let touch f = Out_channel.with_open_text f (fun oc -> output_string oc "x") in
      touch base;
      let second = Core.Report.fresh_path base in
      check_string "first collision takes -2"
        (Filename.concat dir "BENCH_2026-01-01-2.json")
        second;
      touch second;
      check_string "second collision takes -3"
        (Filename.concat dir "BENCH_2026-01-01-3.json")
        (Core.Report.fresh_path base))

(* ---------- Ops.resolve_device (the CLI's --device) ---------- *)

(* a file named like a registry device, in the working directory, must
   not shadow the registry entry *)
let test_resolve_device_registry_wins () =
  let expected = Device.to_string (Device.Registry.build "sycamore") in
  with_temp_dir (fun dir ->
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir dir;
          Out_channel.with_open_text "sycamore" (fun oc ->
              output_string oc {|{"not": "a device"}|});
          check_string "the registry device" expected
            (Device.to_string (Service.Ops.resolve_device "sycamore"))))

let test_resolve_device_snapshot_path () =
  let path = "golden/aspen8.json" in
  check_string "the snapshot loads"
    (Device.to_string (Device.of_file path))
    (Device.to_string (Service.Ops.resolve_device path));
  match Service.Ops.resolve_device "golden/no-such-device.json" with
  | _ -> Alcotest.fail "resolved a spec that is neither name nor file"
  | exception Invalid_argument msg ->
    List.iter
      (fun name ->
        check_bool (Printf.sprintf "lists %s (%s)" name msg) true
          (Astring.String.is_infix ~affix:name msg))
      (Device.Registry.names ())

(* ---------- protocol ---------- *)

let test_parse_request () =
  match
    Service.Protocol.parse
      "{\"id\": 7, \"op\": \"compile\", \"deadline_ms\": 250, \"app\": \"qft\"}"
  with
  | Error (_, e) -> Alcotest.fail e.Service.Protocol.message
  | Ok req ->
    check_bool "id" true (req.Service.Protocol.id = Njson.Int 7);
    check_bool "op" true (req.Service.Protocol.op = Service.Protocol.Compile);
    check_bool "deadline" true (req.Service.Protocol.deadline_ms = Some 250.0)

let test_parse_recovers_id () =
  (* unknown op: the error response can still echo the request id *)
  match Service.Protocol.parse "{\"id\": \"abc\", \"op\": \"frobnicate\"}" with
  | Ok _ -> Alcotest.fail "parsed an unknown op"
  | Error (id, e) ->
    check_bool "id recovered" true (id = Njson.String "abc");
    check_bool "kind" true (e.Service.Protocol.kind = Service.Protocol.Unsupported);
    check_bool "lists known ops" true
      (Astring.String.is_infix ~affix:"compile" e.Service.Protocol.message)

let test_parse_bad_json_locates () =
  match Service.Protocol.parse "{\"op\": \"ping\"" with
  | Ok _ -> Alcotest.fail "parsed truncated JSON"
  | Error (id, e) ->
    check_bool "null id" true (id = Njson.Null);
    check_bool "bad_request" true
      (e.Service.Protocol.kind = Service.Protocol.Bad_request);
    check_bool "located" true
      (Astring.String.is_infix ~affix:"line 1" e.Service.Protocol.message)

let test_response_shapes () =
  check_string "ok response"
    "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}"
    (Service.Protocol.response_ok ~id:(Njson.Int 1)
       (Njson.Obj [ ("pong", Njson.Bool true) ]));
  check_string "error response"
    "{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"timeout\",\"message\":\"late\"}}"
    (Service.Protocol.response_error ~id:Njson.Null
       { Service.Protocol.kind = Service.Protocol.Timeout; message = "late" })

(* ---------- bounded queue ---------- *)

let test_queue_bounds () =
  let q = Service.Queue.create ~capacity:2 in
  check_bool "push 1" true (Service.Queue.try_push q 1);
  check_bool "push 2" true (Service.Queue.try_push q 2);
  check_bool "push to full queue refused" false (Service.Queue.try_push q 3);
  check_bool "pop 1" true (Service.Queue.pop q = Some 1);
  check_bool "slot freed" true (Service.Queue.try_push q 3);
  Service.Queue.close q;
  check_bool "push after close refused" false (Service.Queue.try_push q 4);
  check_bool "accepted items drain after close" true (Service.Queue.pop q = Some 2);
  check_bool "then 3" true (Service.Queue.pop q = Some 3);
  check_bool "then empty" true (Service.Queue.pop q = None)

(* ---------- deadlines ---------- *)

let test_deadline () =
  let d = Service.Deadline.after ~ms:(-1.0) in
  check_bool "negative budget is born expired" true (Service.Deadline.expired d);
  let far = Service.Deadline.after ~ms:60_000.0 in
  check_bool "a minute out is not expired" false (Service.Deadline.expired far);
  check_bool "remaining is positive" true (Service.Deadline.remaining_ms far > 0.0);
  let t0 = Service.Deadline.now_ms () in
  let t1 = Service.Deadline.now_ms () in
  check_bool "monotonic readings never decrease" true (t1 >= t0)

(* ---------- server engine (injected executors) ---------- *)

let batch ?exec ~workers lines =
  let t =
    Service.Server.create ?exec
      { Service.Server.workers; queue_depth = max 8 (List.length lines) }
  in
  let lock = Mutex.create () in
  let replies = ref [] in
  List.iter
    (fun line ->
      Service.Server.submit_line t
        ~reply:(fun r ->
          Mutex.lock lock;
          replies := r :: !replies;
          Mutex.unlock lock)
        line)
    lines;
  Service.Server.drain t;
  (t, List.sort compare !replies)

let test_server_end_to_end () =
  let _, replies =
    batch ~workers:2
      [ "{\"id\":1,\"op\":\"ping\"}"; "{\"id\":2,\"op\":\"devices\"}" ]
  in
  check_int "two replies" 2 (List.length replies);
  check_bool "ping pongs" true
    (List.mem "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true}}" replies)

(* the error kind of a response line, if it is an error *)
let error_kind_of_reply reply =
  match Njson.of_string_result reply with
  | Ok j -> (
    match Option.bind (Njson.member "error" j) (Njson.member "kind") with
    | Some (Njson.String k) -> Some k
    | _ -> None)
  | Error _ -> None

let ok_reply reply =
  match Njson.of_string_result reply with
  | Ok j -> Njson.member "ok" j = Some (Njson.Bool true)
  | Error _ -> false

let test_server_failing_exec_is_internal () =
  let exec _req = failwith "backend down" in
  let _, replies = batch ~exec ~workers:1 [ "{\"id\":1,\"op\":\"ping\"}" ] in
  check_bool "not ok" false (ok_reply (List.hd replies));
  check_bool "internal" true (error_kind_of_reply (List.hd replies) = Some "internal")

let test_server_refuses_after_drain () =
  let t, _ = batch ~workers:1 [ "{\"id\":1,\"op\":\"ping\"}" ] in
  (* t is drained; a late request must bounce with [draining] *)
  let reply_line = ref "" in
  Service.Server.submit_line t
    ~reply:(fun r -> reply_line := r)
    "{\"id\":9,\"op\":\"ping\"}";
  check_bool "draining refusal" true
    (Astring.String.is_infix ~affix:"\"kind\":\"draining\"" !reply_line)

let test_server_stats_op () =
  let t, replies = batch ~workers:1 [ "{\"id\":1,\"op\":\"stats\"}" ] in
  ignore t;
  match Njson.of_string_result (List.hd replies) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let result = Njson.member "result" j in
    let field name = Option.bind result (Njson.member name) in
    check_bool "schema" true
      (field "schema" = Some (Njson.String Service.Protocol.schema));
    check_bool "workers" true (field "workers" = Some (Njson.Int 1));
    check_bool "has cache stats" true (field "cache" <> None)

let test_ops_bad_device_is_typed () =
  match Service.Protocol.parse "{\"id\":1,\"op\":\"compile\",\"device\":\"warp-core\"}" with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok req -> (
    match Service.Ops.execute req with
    | Ok _ -> Alcotest.fail "compiled on an unknown device"
    | Error e ->
      check_bool "bad_request" true
        (e.Service.Protocol.kind = Service.Protocol.Bad_request))

(* a served request names a registry device: an existing snapshot file
   is an unknown device, refused with the known names listed *)
let test_ops_device_path_refused () =
  let path = "golden/aspen8.json" in
  check_bool "the snapshot exists" true (Sys.file_exists path);
  match
    Service.Protocol.parse
      (Printf.sprintf {|{"op":"compile","app":"qaoa","isa":"R2","device":%S}|} path)
  with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok req -> (
    match Service.Ops.execute req with
    | Ok _ -> Alcotest.fail "compiled on a device read from a file"
    | Error e ->
      check_bool "bad_request" true
        (e.Service.Protocol.kind = Service.Protocol.Bad_request);
      let known =
        match Astring.String.cut ~sep:"known:" e.Service.Protocol.message with
        | Some (_, names) -> names
        | None -> Alcotest.failf "no known-device list in %S" e.Service.Protocol.message
      in
      List.iter
        (fun name ->
          check_bool (Printf.sprintf "lists %s (%s)" name known) true
            (Astring.String.is_infix ~affix:name known))
        (Device.Registry.names ()))

(* Aspen-8 calibrates no SYC: a compile or score with G7 there is a
   bad_request naming the type, not a failure deep in lowering *)
let test_ops_uncalibrated_set_refused () =
  List.iter
    (fun op ->
      match
        Service.Protocol.parse
          (Printf.sprintf {|{"op":%S,"app":"qaoa","isa":"G7","device":"aspen8"}|} op)
      with
      | Error _ -> Alcotest.fail "parse failed"
      | Ok req -> (
        match Service.Ops.execute req with
        | Ok _ -> Alcotest.failf "%s of G7 on aspen8 accepted" op
        | Error e ->
          check_bool (op ^ " is bad_request") true
            (e.Service.Protocol.kind = Service.Protocol.Bad_request);
          Alcotest.(check string)
            (op ^ " names the set, the type and the device")
            "instruction set G7 uses SYC, which device aspen8 does not calibrate"
            e.Service.Protocol.message))
    [ "compile"; "score" ]

(* a circuit wider than the device used to fail inside the compiler's
   first metrics snapshot ("index out of bounds") or in the study's own
   placement, naming neither width *)
let test_ops_wider_circuit_refused () =
  List.iter
    (fun op ->
      match
        Service.Protocol.parse
          (Printf.sprintf
             {|{"op":%S,"app":"qv","qubits":9,"isa":"R5","device":"aspen8","count":1}|} op)
      with
      | Error _ -> Alcotest.fail "parse failed"
      | Ok req -> (
        match Service.Ops.execute req with
        | Ok _ -> Alcotest.failf "%s of QV-9 on aspen8 accepted" op
        | Error e ->
          check_bool (op ^ " is bad_request") true
            (e.Service.Protocol.kind = Service.Protocol.Bad_request);
          Alcotest.(check string)
            (op ^ " names both widths and the device")
            "circuit needs 9 qubits, but device aspen8 has 8" e.Service.Protocol.message))
    [ "compile"; "score" ]

(* out-of-range widths and counts used to reach the app and device
   builders' assertions and come back as [internal] errors *)
let test_ops_out_of_range_params_are_typed () =
  List.iter
    (fun (line, field) ->
      match Service.Protocol.parse line with
      | Error _ -> Alcotest.fail ("parse failed: " ^ line)
      | Ok req -> (
        match Service.Ops.execute req with
        | Ok _ -> Alcotest.fail ("accepted " ^ line)
        | Error e ->
          check_bool (line ^ " is bad_request") true
            (e.Service.Protocol.kind = Service.Protocol.Bad_request);
          check_bool
            (Printf.sprintf "%s names %s (%s)" line field e.Service.Protocol.message)
            true
            (Astring.String.is_prefix ~affix:field e.Service.Protocol.message)))
    [
      ({|{"op":"score","count":0}|}, "count");
      ({|{"op":"compile","app":"qft","qubits":0}|}, "qubits");
      ({|{"op":"score","app":"qft","qubits":0}|}, "qubits");
      ({|{"op":"compile","app":"qv","qubits":-2}|}, "qubits");
      ({|{"op":"compile","app":"qaoa","qubits":1}|}, "qubits");
      ({|{"op":"compile","app":"qft","qubits":31,"device":"sycamore"}|}, "qubits");
    ]

(* ---------- properties: the resident server against its laws ---------- *)

module G = Proptest.Gen

let obj_line kvs = Njson.to_string ~indent:0 (Njson.Obj kvs)

(* a small request mix: cheap ops plus real compiles over a bounded
   parameter space (so the shared cache covers repeats quickly) *)
let request_line_gen =
  let compile_req =
    G.map2
      (fun (qubits, seed) id ->
        obj_line
          [
            ("id", Njson.Int id);
            ("op", Njson.String "compile");
            ("app", Njson.String "qaoa");
            ("isa", Njson.String "G2");
            ("qubits", Njson.Int qubits);
            ("seed", Njson.Int seed);
          ])
      (G.pair (G.int_range 3 4) (G.int_range 1 3))
      (G.int_range 0 1000)
  in
  let simple op =
    G.map
      (fun id -> obj_line [ ("id", Njson.Int id); ("op", Njson.String op) ])
      (G.int_range 0 1000)
  in
  G.choose [ compile_req; simple "ping"; simple "devices"; compile_req ]

let service_properties =
  [
    (* the response multiset is invariant under worker count — a
       3-worker server answers byte for byte what the 1-worker
       (sequential) server answers *)
    Proptest.test "responses are byte-identical at pool sizes 1 and 3" ~count:4
      (Proptest.arbitrary ~print:(String.concat "\n")
         (G.list_of ~len:(G.int_range 1 6) request_line_gen))
      (fun lines ->
        let _, sequential = batch ~workers:1 lines in
        let _, concurrent = batch ~workers:3 lines in
        List.equal String.equal sequential concurrent);
    (* backpressure: with the worker wedged and the queue full, every
       extra request is refused as [overloaded], synchronously, and
       every accepted one still completes after the wedge lifts —
       nothing is ever dropped *)
    Proptest.test "queue overflow always answers overloaded, never drops" ~count:5
      (Proptest.arbitrary
         ~print:(fun (q, k) -> Printf.sprintf "queue=%d extras=%d" q k)
         (G.pair (G.int_range 1 4) (G.int_range 1 4)))
      (fun (q, k) ->
        let gate = Mutex.create () in
        let gate_cv = Condition.create () in
        let open_ = ref false in
        let started = Atomic.make 0 in
        let exec _req =
          Mutex.lock gate;
          Atomic.incr started;
          Condition.broadcast gate_cv;
          while not !open_ do
            Condition.wait gate_cv gate
          done;
          Mutex.unlock gate;
          Ok (Njson.Bool true)
        in
        let t =
          Service.Server.create ~exec
            { Service.Server.workers = 1; queue_depth = q }
        in
        let lock = Mutex.create () in
        let replies = ref [] in
        let reply r =
          Mutex.lock lock;
          replies := r :: !replies;
          Mutex.unlock lock
        in
        let submit i =
          Service.Server.submit_line t ~reply
            (obj_line [ ("id", Njson.Int i); ("op", Njson.String "ping") ])
        in
        submit 0;
        (* wait until the single worker holds request 0, so the queue
           really has q free slots — a blocking wait, because on a
           loaded single-core box the worker domain can take arbitrarily
           long to be scheduled *)
        Mutex.lock gate;
        while Atomic.get started = 0 do
          Condition.wait gate_cv gate
        done;
        Mutex.unlock gate;
        for i = 1 to q do
          submit i
        done;
        (* these k must bounce immediately: the reply arrives before
           submit_line returns *)
        let overloaded = ref 0 in
        for i = q + 1 to q + k do
          let before = List.length !replies in
          submit i;
          Mutex.lock lock;
          let now = !replies in
          Mutex.unlock lock;
          if
            List.length now = before + 1
            && error_kind_of_reply (List.hd now) = Some "overloaded"
          then incr overloaded
        done;
        Mutex.lock gate;
        open_ := true;
        Condition.broadcast gate_cv;
        Mutex.unlock gate;
        Service.Server.drain t;
        !overloaded = k
        && List.length !replies = 1 + q + k
        && List.length (List.filter ok_reply !replies) = 1 + q);
    (* deadlines: a request that expires in the queue answers [timeout]
       without executing, one that expires mid-execution answers
       [timeout] after it, and the worker slot survives both *)
    Proptest.test "deadline exceeded yields timeout and the slot is reclaimed" ~count:3
      (Proptest.arbitrary ~print:(Printf.sprintf "deadline=%dms") (G.int_range 1 5))
      (fun dl_ms ->
        let gate = Mutex.create () in
        let gate_cv = Condition.create () in
        let open_ = ref false in
        let entered = ref false in
        let started = Atomic.make 0 in
        let exec req =
          Atomic.incr started;
          (match Njson.member "block" req.Service.Protocol.body with
          | Some (Njson.Bool true) ->
            Mutex.lock gate;
            entered := true;
            Condition.broadcast gate_cv;
            while not !open_ do
              Condition.wait gate_cv gate
            done;
            Mutex.unlock gate
          | _ -> ());
          Ok (Njson.Bool true)
        in
        let t =
          Service.Server.create ~exec
            { Service.Server.workers = 1; queue_depth = 8 }
        in
        let lock = Mutex.create () in
        let replies = Hashtbl.create 4 in
        let reply_for id r =
          Mutex.lock lock;
          Hashtbl.replace replies id r;
          Mutex.unlock lock
        in
        (* r0 wedges the worker; it carries no deadline, so it reaches
           the executor no matter how slowly the domain is scheduled *)
        Service.Server.submit_line t ~reply:(reply_for 0)
          (obj_line
             [ ("id", Njson.Int 0); ("op", Njson.String "ping"); ("block", Njson.Bool true) ]);
        Mutex.lock gate;
        while not !entered do
          Condition.wait gate_cv gate
        done;
        Mutex.unlock gate;
        (* r1 queues behind the wedge with a deadline we let expire
           before releasing the worker.  The probe is armed after
           submit_line returns, so on the shared monotonic clock the
           probe expiring implies r1's own deadline has expired *)
        Service.Server.submit_line t ~reply:(reply_for 1)
          (obj_line
             [
               ("id", Njson.Int 1);
               ("op", Njson.String "ping");
               ("deadline_ms", Njson.Float (float_of_int dl_ms));
             ]);
        let probe = Service.Deadline.after ~ms:(float_of_int dl_ms) in
        while not (Service.Deadline.expired probe) do
          Unix.sleepf 0.001
        done;
        (* r2: no deadline -> proves the worker slot was reclaimed *)
        Service.Server.submit_line t ~reply:(reply_for 2)
          (obj_line [ ("id", Njson.Int 2); ("op", Njson.String "ping") ]);
        Mutex.lock gate;
        open_ := true;
        Condition.broadcast gate_cv;
        Mutex.unlock gate;
        Service.Server.drain t;
        let kind id = Option.bind (Hashtbl.find_opt replies id) error_kind_of_reply in
        let ok id =
          match Hashtbl.find_opt replies id with Some r -> ok_reply r | None -> false
        in
        ok 0
        && kind 1 = Some "timeout"
        && ok 2
        && Atomic.get started = 2 (* r1 never reached the executor *));
  ]

let () =
  Alcotest.run "service"
    [
      ( "njson-boundary",
        [
          Alcotest.test_case "of_string_result ok" `Quick test_of_string_result_ok;
          Alcotest.test_case "errors carry line/column" `Quick
            test_of_string_result_locates_errors;
          Alcotest.test_case "multi-line position" `Quick
            test_of_string_result_multiline_position;
        ] );
      ( "registry",
        [
          Alcotest.test_case "case-insensitive find" `Quick
            test_registry_case_insensitive;
          Alcotest.test_case "miss lists known names" `Quick
            test_registry_miss_lists_names;
        ] );
      ( "report",
        [ Alcotest.test_case "fresh_path suffixes" `Quick test_fresh_path ] );
      ( "resolve_device",
        [
          Alcotest.test_case "registry name beats a same-named file" `Quick
            test_resolve_device_registry_wins;
          Alcotest.test_case "snapshot path loads" `Quick
            test_resolve_device_snapshot_path;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse full request" `Quick test_parse_request;
          Alcotest.test_case "unknown op recovers id" `Quick test_parse_recovers_id;
          Alcotest.test_case "bad JSON located" `Quick test_parse_bad_json_locates;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
        ] );
      ( "queue",
        [ Alcotest.test_case "bounds and close" `Quick test_queue_bounds ] );
      ( "deadline", [ Alcotest.test_case "expiry" `Quick test_deadline ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "failing executor is internal" `Quick
            test_server_failing_exec_is_internal;
          Alcotest.test_case "drain refusal" `Quick test_server_refuses_after_drain;
          Alcotest.test_case "stats op" `Quick test_server_stats_op;
          Alcotest.test_case "typed bad device" `Quick test_ops_bad_device_is_typed;
          Alcotest.test_case "snapshot path refused" `Quick test_ops_device_path_refused;
          Alcotest.test_case "uncalibrated set refused" `Quick test_ops_uncalibrated_set_refused;
          Alcotest.test_case "wider circuit refused" `Quick test_ops_wider_circuit_refused;
          Alcotest.test_case "typed out-of-range params" `Quick
            test_ops_out_of_range_params_are_typed;
        ] );
      ("service", service_properties);
    ]
