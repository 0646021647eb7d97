(* Benchmark harness: regenerates every table and figure of the paper
   (one target each) and runs Bechamel microbenchmarks of the hot
   kernels.

     dune exec bench/main.exe -- all            # every experiment, quick scale
     dune exec bench/main.exe -- fig9 --paper   # one experiment, paper scale
     dune exec bench/main.exe -- micro          # kernel microbenchmarks

   Quick scale shrinks sample counts (see Config); shapes are preserved.
   EXPERIMENTS.md records paper-vs-measured for each experiment. *)

let experiments = Core.Registry.all

(* ---------- Bechamel microbenchmarks ---------- *)

let micro_tests () =
  let open Bechamel in
  let rng = Linalg.Rng.create 3 in
  let a = Linalg.Qr.haar_unitary rng 4 and b = Linalg.Qr.haar_unitary rng 4 in
  let dst = Linalg.Mat.create 4 4 in
  (* boxed reference matmul for the unboxed-storage ablation *)
  let boxed_mul x y =
    Linalg.Mat.init 4 4 (fun i j ->
        let acc = ref Complex.zero in
        for k = 0 to 3 do
          acc := Complex.add !acc (Complex.mul (Linalg.Mat.get x i k) (Linalg.Mat.get y k j))
        done;
        !acc)
  in
  let target = Linalg.Qr.haar_special_unitary rng 4 in
  let template = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  let params =
    Array.init (Decompose.Template.param_count template) (fun _ ->
        Linalg.Rng.uniform rng (-.Float.pi) Float.pi)
  in
  let state16 = Sim.State.create 16 in
  let syc = Gates.Twoq.syc in
  let qv_target = Linalg.Qr.haar_special_unitary rng 4 in
  let nuop_opts = { Decompose.Nuop.default_options with starts = 1 } in
  (* long 1Q runs broken by entanglers — the shape the peephole sees
     after NuOp lowering *)
  let peephole_circuit =
    let c = ref (Qcir.Circuit.empty 4) in
    for k = 0 to 63 do
      let q = k mod 4 in
      if k mod 7 = 6 then c := Qcir.Circuit.add_gate !c Gates.Gate.cz [| q; (q + 1) mod 4 |]
      else
        c :=
          Qcir.Circuit.add_gate !c
            (Gates.Gate.u3
               (Linalg.Rng.uniform rng 0.0 Float.pi)
               (Linalg.Rng.uniform rng 0.0 Float.pi)
               (Linalg.Rng.uniform rng 0.0 Float.pi))
            [| q |]
    done;
    !c
  in
  let peephole_errors = Array.make (Qcir.Circuit.length peephole_circuit) 0.0 in
  [
    Test.make ~name:"mat4.mul (unboxed)" (Staged.stage (fun () -> Linalg.Mat.mul_into ~dst a b));
    Test.make ~name:"mat4.mul (boxed ref)" (Staged.stage (fun () -> ignore (boxed_mul a b)));
    Test.make ~name:"template.eval 3 layers"
      (Staged.stage (fun () -> ignore (Decompose.Template.fidelity template params ~target)));
    Test.make ~name:"statevector 2q gate @16q"
      (Staged.stage (fun () -> Sim.State.apply_matrix state16 syc [| 3; 9 |]));
    Test.make ~name:"nuop exact SU4->CZ (1 start)"
      (Staged.stage (fun () ->
           ignore
             (Decompose.Nuop.decompose_exact ~options:nuop_opts Gates.Gate_type.s3
                ~target:qv_target)));
    Test.make ~name:"weyl.cnot_count"
      (Staged.stage (fun () -> ignore (Decompose.Weyl.cnot_count qv_target)));
    Test.make ~name:"pass.merge_oneq 64 instrs"
      (Staged.stage (fun () ->
           ignore (Compiler.Pass.merge_oneq_rewrite peephole_circuit peephole_errors)));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "Microbenchmarks (ns/run via OLS):";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.6) ~kde:(Some 500) () in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        stats)
    tests

(* ---------- optimizer ablation (BFGS vs Nelder-Mead) ---------- *)

let run_ablation () =
  print_endline "\nAblation: BFGS vs Nelder-Mead on one SU(4)->CZ template (3 layers):";
  let rng = Linalg.Rng.create 9 in
  let target = Linalg.Qr.haar_special_unitary rng 4 in
  let template = Decompose.Template.create Gates.Gate_type.s3 ~layers:3 in
  let dim = Decompose.Template.param_count template in
  let objective p = Decompose.Template.infidelity template p ~target in
  let x0 = Array.init dim (fun _ -> Linalg.Rng.uniform rng (-.Float.pi) Float.pi) in
  let b, bfgs_s =
    Obs.Span.timed "bench.ablation.bfgs" (fun () -> Optimize.Bfgs.minimize objective x0)
  in
  let nm, nm_s =
    Obs.Span.timed "bench.ablation.nelder_mead" (fun () ->
        Optimize.Nelder_mead.minimize
          ~options:{ Optimize.Nelder_mead.default_options with max_iter = 20000 }
          objective x0)
  in
  Printf.printf "  BFGS:        infidelity %.2e in %d iters, %d evals, %.0f ms\n"
    b.Optimize.Bfgs.f b.iterations b.evaluations (1000.0 *. bfgs_s);
  Printf.printf "  Nelder-Mead: infidelity %.2e in %d iters, %d evals, %.0f ms\n"
    nm.Optimize.Nelder_mead.f nm.iterations nm.evaluations (1000.0 *. nm_s)

(* ---------- JSON artifact ---------- *)

(* BENCH_<date>.json names stamp in UTC (Obs.Clock wraps gmtime): with
   the old local-time stamp, the same nightly run produced different
   artifact names depending on the machine's timezone. *)
let today () = Obs.Clock.utc_date (Obs.Clock.now ())

(* Run one registered experiment under its span, returning the document
   and its wall time. Wall time is measured around the document build
   (all the numeric work happens there; rendering is negligible) — the
   same number lands in the nuop-bench/1 "seconds" field and, under
   --trace / NUOP_TRACE, in the trace. *)
let run_experiment cfg (e : Core.Registry.entry) =
  Obs.Span.timed ~attrs:[ ("experiment", e.name) ] "bench.experiment" (fun () -> e.run cfg)

let print_report (e : Core.Registry.entry) (doc, seconds) =
  Core.Report.print doc;
  Printf.printf "\n[%s done in %.1f s]\n%!" e.name seconds

(* One experiment's JSON node; with [~echo] its text report also goes to
   stdout, exactly as the text run prints it. *)
let experiment_json ~echo cfg (e : Core.Registry.entry) =
  let ((doc, seconds) as run) = run_experiment cfg e in
  if echo then print_report e run;
  Core.Report.to_json ~name:e.name ~description:e.description ~seconds doc

let artifact cfg ~scale ~echo entries =
  Njson.Obj
    [
      ("schema", Njson.String "nuop-bench/1");
      ("date", Njson.String (today ()));
      ("scale", Njson.String scale);
      ("experiments", Njson.List (List.map (experiment_json ~echo cfg) entries));
    ]

let write_json ~out json =
  let s = Njson.to_string json ^ "\n" in
  match out with
  | None -> print_string s
  | Some file ->
    let oc = open_out file in
    output_string oc s;
    close_out oc;
    Printf.printf "wrote %s\n%!" file

(* CI completeness check: the artifact must contain a well-formed entry
   for every registered experiment. *)
let verify_json file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let json =
    match Njson.of_string_result s with
    | Ok j -> j
    | Error msg ->
      Obs.Log.error "%s: JSON parse error: %s" file msg;
      exit 1
  in
  let entries =
    Option.bind (Njson.member "experiments" json) Njson.to_list
    |> Option.value ~default:[]
  in
  let found =
    List.filter_map
      (fun e ->
        match Njson.member "name" e with
        | Some (Njson.String n) -> Some n
        | _ -> None)
      entries
  in
  let missing =
    List.filter (fun n -> not (List.mem n found)) Core.Registry.names
  in
  if missing <> [] then (
    Obs.Log.error "%s: missing experiments: %s" file (String.concat ", " missing);
    exit 1);
  Printf.printf "%s: all %d experiments present\n" file (List.length found)

(* ---------- warm-vs-cold cache comparison ---------- *)

(* `bench <names...> --cache FILE` (or `bench all --cache FILE`) runs
   every selected experiment twice: once cold (empty decomposition
   cache) and once warmed from FILE, which is (re)written from the cold
   run's curves in between.  Because curves are deterministic, the two
   report texts must be byte-identical whenever the report itself embeds
   no cache statistics (the ablations pass-metrics table legitimately
   differs: its misses become warm hits).  The comparison table is the
   warm/cold wall-time evidence for the persistence layer. *)
let run_cached cfg file entries =
  let rows =
    List.map
      (fun (e : Core.Registry.entry) ->
        Decompose.Cache.clear ();
        let cold_doc, cold_s =
          Obs.Span.timed
            ~attrs:[ ("experiment", e.name); ("mode", "cold") ]
            "bench.experiment"
            (fun () -> e.run cfg)
        in
        let cold_text = Core.Report.render_text cold_doc in
        (* grow the snapshot: existing file entries merge in (never
           clobbering this run's), then the union is saved atomically *)
        if Sys.file_exists file then ignore (Decompose.Cache.load_from_file file);
        let saved = Decompose.Cache.save_to_file file in
        Decompose.Cache.clear ();
        let warm_entries = Decompose.Cache.load_from_file file in
        let warm_doc, warm_s =
          Obs.Span.timed
            ~attrs:[ ("experiment", e.name); ("mode", "warm") ]
            "bench.experiment"
            (fun () -> e.run cfg)
        in
        let warm_text = Core.Report.render_text warm_doc in
        Printf.printf "[%s: cold %.1f s, warm %.1f s, %d curves saved, %d loaded]\n%!"
          e.name cold_s warm_s saved warm_entries;
        [
          e.name;
          Printf.sprintf "%.2f" cold_s;
          Printf.sprintf "%.2f" warm_s;
          (if warm_s > 0.0 then Printf.sprintf "%.1fx" (cold_s /. warm_s) else "-");
          (if String.equal cold_text warm_text then "yes" else "no");
        ])
      entries
  in
  print_newline ();
  Printf.printf "Warm-vs-cold wall time (cache file %s):\n" file;
  print_string
    (Core.Report.block_to_string
       (Core.Report.Table
          { header = [ "experiment"; "cold (s)"; "warm (s)"; "speedup"; "identical" ]; rows }))

(* ---------- serve-load: closed-loop load generator ---------- *)

(* Drives an in-process Service.Server exactly the way the socket
   transport does (submit_line + reply callbacks), keeping [clients]
   requests outstanding: each reply immediately submits the next
   request, so measured latency includes queueing behind one's own
   concurrency, never behind an artificially open arrival process.

   Two phases over the SAME request set: cold (decomposition cache
   cleared) and warm (the cold phase's curves resident).  Per-request
   seeds differ, so the cold phase really computes distinct curves; the
   warm phase replays them as pure cache hits — the warm/cold throughput
   ratio is the service-side evidence for the shared warm cache. *)

let serve_load_line i =
  Njson.to_string ~indent:0
    (Njson.Obj
       [
         ("id", Njson.Int i);
         ("op", Njson.String "compile");
         ("app", Njson.String "qaoa");
         ("qubits", Njson.Int 4);
         ("seed", Njson.Int (3000 + i));
       ])

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let serve_load_phase ~requests ~clients config =
  let t = Service.Server.create config in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  let completed = ref 0 in
  let errors = ref 0 in
  let latencies = Array.make requests 0.0 in
  let next = Atomic.make 0 in
  let t0 = Service.Deadline.now_ms () in
  (* closed loop: a reply on a worker domain fires the next submission *)
  let rec submit_next () =
    let i = Atomic.fetch_and_add next 1 in
    if i < requests then begin
      let start = Service.Deadline.now_ms () in
      Service.Server.submit_line t
        ~reply:(fun line ->
          latencies.(i) <- Service.Deadline.now_ms () -. start;
          let ok =
            match Njson.of_string_result line with
            | Ok j -> Njson.member "ok" j = Some (Njson.Bool true)
            | Error _ -> false
          in
          Mutex.lock lock;
          if not ok then incr errors;
          incr completed;
          Condition.signal all_done;
          Mutex.unlock lock;
          submit_next ())
        (serve_load_line i)
    end
  in
  for _ = 1 to min clients requests do
    submit_next ()
  done;
  Mutex.lock lock;
  while !completed < requests do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  let elapsed_s = (Service.Deadline.now_ms () -. t0) /. 1000.0 in
  Service.Server.drain t;
  Array.sort compare latencies;
  let throughput =
    if elapsed_s > 0.0 then float_of_int requests /. elapsed_s else 0.0
  in
  (throughput, percentile latencies 50.0, percentile latencies 95.0,
   percentile latencies 99.0, !errors)

let run_serve_load ~requests ~clients ~workers =
  let config =
    {
      Service.Server.workers;
      (* the closed loop holds at most [clients] outstanding, so this
         queue never refuses — serve-load measures latency, the queue
         property tests measure backpressure *)
      queue_depth = max 64 (2 * clients);
    }
  in
  Printf.printf
    "serve-load: %d workers, %d closed-loop clients, %d requests per phase\n%!"
    workers clients requests;
  Decompose.Cache.clear ();
  let cold_tp, cold_p50, cold_p95, cold_p99, cold_err =
    serve_load_phase ~requests ~clients config
  in
  let warm_tp, warm_p50, warm_p95, warm_p99, warm_err =
    serve_load_phase ~requests ~clients config
  in
  let row label tp p50 p95 p99 err =
    [
      label;
      Printf.sprintf "%.1f" tp;
      Printf.sprintf "%.1f" p50;
      Printf.sprintf "%.1f" p95;
      Printf.sprintf "%.1f" p99;
      string_of_int err;
    ]
  in
  print_string
    (Core.Report.block_to_string
       (Core.Report.Table
          {
            header = [ "phase"; "req/s"; "p50 (ms)"; "p95 (ms)"; "p99 (ms)"; "errors" ];
            rows =
              [
                row "cold" cold_tp cold_p50 cold_p95 cold_p99 cold_err;
                row "warm" warm_tp warm_p50 warm_p95 warm_p99 warm_err;
              ];
          }));
  Printf.printf "warm/cold throughput: %.1fx\n%!"
    (if cold_tp > 0.0 then warm_tp /. cold_tp else 0.0)

(* ---------- CLI ---------- *)

let () =
  (* NUOP_TRACE=FILE traces the whole bench run (JSONL, closed at exit);
     then warm the decomposition cache from NUOP_CACHE_FILE (if set) —
     the --cache comparison mode clears and manages the cache itself *)
  Obs.Trace.init_from_env ();
  (* surface a malformed NUOP_LOG_LEVEL even on runs that log nothing *)
  Obs.Log.check_env ();
  ignore (Decompose.Cache.warm_from_env ());
  let args = Array.to_list Sys.argv |> List.tl in
  let paper = List.mem "--paper" args in
  let json = List.mem "--json" args in
  let rec out_file = function
    | "-o" :: f :: _ -> Some f
    | _ :: rest -> out_file rest
    | [] -> None
  in
  let out = out_file args in
  let rec cache_file = function
    | "--cache" :: f :: _ -> Some f
    | _ :: rest -> cache_file rest
    | [] -> None
  in
  let cache = cache_file args in
  (* value-bearing flags (serve-load sizing) *)
  let int_flag flag default =
    let rec find = function
      | f :: v :: _ when f = flag -> ( match int_of_string_opt v with
        | Some n when n > 0 -> n
        | _ ->
          Obs.Log.error "bench: %s expects a positive integer, got %S" flag v;
          exit 1)
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let names =
    let rec strip = function
      | "-o" :: _ :: rest -> strip rest
      | "--cache" :: _ :: rest -> strip rest
      | "--requests" :: _ :: rest -> strip rest
      | "--clients" :: _ :: rest -> strip rest
      | "--workers" :: _ :: rest -> strip rest
      | a :: rest when String.length a >= 2 && String.sub a 0 2 = "--" -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let cfg = if paper then Core.Config.paper else Core.Config.quick in
  let scale = if paper then "paper" else "quick" in
  match names with
  | [ "verify-json"; file ] -> verify_json file
  | [ "serve-load" ] ->
    run_serve_load
      ~requests:(int_flag "--requests" 40)
      ~clients:(int_flag "--clients" 8)
      ~workers:(int_flag "--workers" (Concurrent.Domain_pool.default_domains ()))
  | _ when cache <> None ->
    let file = Option.get cache in
    let entries =
      match names with
      | [] | [ "all" ] -> experiments
      | names ->
        List.map
          (fun name ->
            match Core.Registry.find name with
            | Some e -> e
            | None ->
              Obs.Log.error
                "unknown experiment %s (--cache runs registry experiments only)" name;
              exit 1)
          names
    in
    run_cached cfg file entries
  | _ ->
    (* a JSON artifact written to a file leaves stdout to the text
       reports, so one run gives both *)
    let echo = out <> None in
    let run_and_print e = print_report e (run_experiment cfg e) in
    let run_one name =
      match Core.Registry.find name with
      | Some e ->
        if json then write_json ~out (experiment_json ~echo cfg e) else run_and_print e
      | None ->
        (match name with
        | "micro" ->
          run_micro ();
          run_ablation ()
        | "all" when json ->
          let out =
            match out with
            | Some f -> Some f
            | None ->
              (* never clobber an earlier artifact from the same UTC day:
                 take BENCH_<date>-2.json, -3.json, ... and say so *)
              let default = Printf.sprintf "BENCH_%s.json" (today ()) in
              let path = Core.Report.fresh_path default in
              if path <> default then
                Obs.Log.warn "bench: %s already exists; writing %s instead" default
                  path;
              Some path
          in
          let json = artifact cfg ~scale ~echo:true experiments in
          run_ablation ();
          write_json ~out json
        | "all" ->
          List.iter run_and_print experiments;
          run_ablation ()
        | _ ->
          let usage = Buffer.create 256 in
          Printf.bprintf usage "unknown experiment %s\navailable:\n" name;
          List.iter
            (fun (e : Core.Registry.entry) ->
              Printf.bprintf usage "  %-8s %s\n" e.name e.description)
            experiments;
          Printf.bprintf usage "  %-8s kernel microbenchmarks\n  %-8s everything\n"
            "micro" "all";
          Printf.bprintf usage
            "flags: --paper (published scale), --json [-o FILE]\n\
             subcommands: verify-json FILE (CI completeness check)\n\
            \             serve-load [--requests N] [--clients N] [--workers N] \
             (service throughput, cold vs warm cache)";
          Obs.Log.error "%s" (Buffer.contents usage);
          exit 1)
    in
    (match names with
    | [] when json -> write_json ~out (artifact cfg ~scale ~echo experiments)
    | [] ->
      Printf.printf
        "NuOp reproduction bench harness: running ALL experiments at %s scale.\n\
         (pass an experiment name to run one; --paper for published scale)\n%!"
        scale;
      List.iter run_one Core.Registry.names;
      run_micro ();
      run_ablation ()
    | names -> List.iter run_one names)
