(* The repository benchmark.

     bench.exe --workload expressivity|study|serve --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, measures for S seconds
   (in ten rounds, each at least one pass) and prints, as the last
   line of stdout, one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1, as BENCHMARK.json
   (read from the working directory) lists them.  The run record,
   the traced run's span table and any failed check go to stderr; run
   artifacts go to perfbench/out.

     bench.exe --self-test      checks the statistic helpers *)

module C = Common

(* The metric names and units the run must print, in BENCHMARK.json's
   order ([section] is "end_to_end" or "per_layer"). *)
let spec_metrics section =
  let spec = Njson.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let field name j =
    match Option.bind (Njson.member name j) Njson.to_string_value with
    | Some v -> v
    | None -> failwith ("BENCHMARK.json: metric without " ^ name)
  in
  match Option.bind (Njson.member section spec) Njson.to_list with
  | Some ms -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | None -> failwith ("BENCHMARK.json: no " ^ section)

let workloads =
  [
    ("expressivity", (Expressivity.run, Expressivity.fingerprint_only));
    ("study", (Study.run, Study.fingerprint_only));
    ("serve", (Serve.run, Serve.fingerprint_only));
  ]

let usage =
  "bench.exe --workload expressivity|study|serve --seed N --seconds S --trace 0|1\n\
   bench.exe --self-test"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let mode = ref `Run in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME expressivity, study or serve");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 per-layer (traced) run");
      ("--fingerprint", Arg.Unit (fun () -> mode := `Fingerprint), " print exact counts only");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " check the statistic helpers");
    ]
  in
  let bad m =
    prerr_endline ("bench: " ^ m);
    prerr_endline usage;
    exit 2
  in
  Arg.parse specs (fun a -> bad ("unexpected argument " ^ a)) usage;
  match !mode with
  | `Self_test -> `Self_test
  | (`Run | `Fingerprint) as mode ->
    if not (List.mem_assoc !workload workloads) then bad ("unknown workload " ^ !workload);
    let seed = match !seed with Some s -> s | None -> bad "--seed is required" in
    let seconds =
      match (!seconds, mode) with
      | Some s, _ when s > 0.0 -> s
      | _, `Fingerprint -> 0.0
      | _ -> bad "--seconds must be positive"
    in
    let trace =
      match (!trace, mode) with
      | Some 0, _ | None, `Fingerprint -> false
      | Some 1, _ -> true
      | _ -> bad "--trace must be 0 or 1"
    in
    let out_dir = Filename.concat "perfbench" "out" in
    let args = { C.workload = !workload; seed; seconds; trace; out_dir } in
    match mode with `Run -> `Run args | `Fingerprint -> `Fingerprint args

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* The determinism guard across processes: a child process of this
   executable recomputes the exact counts for the same seed. *)
let child_fingerprint (args : C.args) =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--workload"; args.C.workload; "--seed"; string_of_int args.C.seed; "--fingerprint";
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Some (String.trim out)
  | _ -> None

(* ... and against any earlier run (traced or not) of this executable
   with the same workload and seed. *)
let check_fingerprint (args : C.args) fp =
  (match child_fingerprint args with
  | Some child when child = fp -> ()
  | Some _ -> C.fail "%s: exact counts differ in a second process" args.C.workload
  | None -> C.fail "%s: the second process failed" args.C.workload);
  let path =
    Filename.concat args.C.out_dir
      (Printf.sprintf "counts-%s-%d-%s.txt" args.C.workload args.C.seed
         (Lazy.force Curves.exe_digest))
  in
  if Sys.file_exists path then begin
    if String.trim (In_channel.with_open_bin path In_channel.input_all) <> fp then
      C.fail "%s: exact counts differ from an earlier run with seed %d" args.C.workload
        args.C.seed
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc (fp ^ "\n"))

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    C.fail "non-finite metric value";
    "0"
  end

let result_line ~attempted metrics =
  let rendered =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.C.name (json_number m.C.value)
          m.C.unit)
      metrics
  in
  let failed = List.length !C.failures in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted (min failed attempted) (String.concat ", " rendered)

let run_record (args : C.args) (o : C.outcome) =
  let refs = o.C.loop.C.reference_s in
  [
    ("workload", args.C.workload);
    ("seed", string_of_int args.C.seed);
    ("trace", string_of_bool args.C.trace);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("pool", "1");
    ("ocaml", Sys.ocaml_version);
    ("passes", string_of_int o.C.loop.C.passes);
    ("timed_s", Printf.sprintf "%.3f" o.C.loop.C.wall_s);
    ("setups", string_of_int (Array.length o.C.loop.C.setup_s));
    ("reference_loop_ms", Printf.sprintf "%.3f" (C.ms (Stats.median refs)));
    ("reference_loop_spread", Printf.sprintf "%.3f" (Stats.spread refs));
  ]
  (* the pool-1 workloads have no server: no workers, one caller *)
  @ (if List.mem_assoc "workers" o.C.record then [] else [ ("workers", "0"); ("clients", "1") ])
  @ o.C.record

let main () =
  match parse_args () with
  | `Self_test ->
    Stats.self_test ();
    print_endline "stats self-test ok"
  | `Fingerprint args ->
    Concurrent.Domain_pool.set_default_domains 1;
    print_endline ((snd (List.assoc args.C.workload workloads)) args)
  | `Run args ->
    Concurrent.Domain_pool.set_default_domains 1;
    mkdir_p args.C.out_dir;
    let run = (fst (List.assoc args.C.workload workloads)) args in
    let o = run.C.outcome in
    check_fingerprint args o.C.fingerprint;
    let metrics =
      if not args.C.trace then o.C.metrics
      else begin
        Tracing.on ();
        let measured = run.C.per_layer () in
        Tracing.off ();
        let path =
          Filename.concat args.C.out_dir
            (Printf.sprintf "trace-%s-%d.jsonl" args.C.workload args.C.seed)
        in
        (match Tracing.write path with
        | Ok _ -> C.log "perfbench: trace %s passes nuop trace check" path
        | Error e -> C.fail "trace %s is invalid: %s" path e);
        Tracing.print_table stderr (Tracing.table (Tracing.spans ()));
        (* a workload reports the layers it exercises; the others read 0 *)
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun m -> m.C.name = name) measured with
            | Some m -> m
            | None -> C.metric name unit 0.0)
          (spec_metrics "per_layer")
      end
    in
    List.iter
      (fun (name, unit) ->
        match List.find_opt (fun m -> m.C.name = name) metrics with
        | Some m when m.C.unit = unit -> ()
        | _ -> C.fail "metric %s (%s) is missing" name unit)
      (spec_metrics (if args.C.trace then "per_layer" else "end_to_end"));
    let record = run_record args o in
    let record_json = Njson.Obj (List.map (fun (k, v) -> (k, Njson.String v)) record) in
    let path =
      Filename.concat args.C.out_dir
        (Printf.sprintf "run-%s-%d-trace%d.json" args.C.workload args.C.seed
           (Bool.to_int args.C.trace))
    in
    let list f a = Njson.List (Array.to_list (Array.map f a)) in
    let matrix = list (list (fun v -> Njson.Float v)) in
    let raw =
      ("setup_s", [| o.C.loop.C.setup_s |])
      :: ("reference_s", [| o.C.loop.C.reference_s |])
      :: o.C.raw
    in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc
          (Njson.to_string
             (Njson.Obj
                [
                  ("record", record_json);
                  ("raw", Njson.Obj (List.map (fun (k, m) -> (k, matrix m)) raw));
                ])
          ^ "\n"));
    C.log "perfbench: run record %s" (Njson.to_string ~indent:0 record_json);
    print_endline (result_line ~attempted:o.C.attempted metrics)

let () = main ()
