(* Workload "serve": a closed loop through Service.Server.submit_line,
   with no socket.

   min(nproc, 2) workers and as many clients, each client keeping one
   compile request outstanding (it submits its next request from the
   reply of the previous one).  It is study's compiler with small
   requests and no simulation, plus the protocol and JSON codec,
   per-request device resolution, queue handoff and cache reads
   contending from two domains.  The loop is closed because the
   service's callers (`nuop request`, study scripts) wait for each
   reply. *)

open Linalg
module C = Common

let workers = min 2 (Domain.recommended_domain_count ())
let clients = workers

(* The hot set: every (app, width, set, device) shape three times, with
   circuit seeds drawn from the run seed.  Google sets compile for
   sycamore, Rigetti sets for aspen8. *)
let shapes =
  [
    ("qv", 3, "G2", "sycamore");
    ("qaoa", 4, "S1", "sycamore");
    ("qft", 4, "G4", "sycamore");
    ("fh", 4, "Full_fSim", "sycamore");
    ("qaoa", 4, "G1", "sycamore");
    ("qv", 3, "S3", "sycamore");
    ("qv", 3, "R2", "aspen8");
    ("qaoa", 4, "S4", "aspen8");
    ("qft", 3, "R3", "aspen8");
    ("fh", 4, "Full_XY", "aspen8");
    ("qaoa", 4, "R1", "aspen8");
    ("qft", 4, "S5", "aspen8");
  ]

type entry = { app : string; qubits : int; seed : int; isa : string; device : string }

let hot_set seed =
  let rng = Rng.create seed in
  Array.of_list
    (List.concat_map
       (fun _ ->
         List.map
           (fun (app, qubits, isa, device) ->
             { app; qubits; seed = Rng.int rng 1_000_000; isa; device })
           shapes)
       [ 1; 2; 3 ])

(* passes send every hot-set entry this many times *)
let reps = 6

let line ~id e =
  Njson.to_string ~indent:0
    (Njson.Obj
       [
         ("id", Njson.Int id);
         ("op", Njson.String "compile");
         ("app", Njson.String e.app);
         ("qubits", Njson.Int e.qubits);
         ("seed", Njson.Int e.seed);
         ("isa", Njson.String e.isa);
         ("device", Njson.String e.device);
       ])

let parse_exn l =
  match Service.Protocol.parse l with
  | Ok r -> r
  | Error (_, e) -> failwith e.Service.Protocol.message

(* The one-shot answer: Ops.execute, rendered as the server renders it. *)
let one_shot e =
  match Service.Ops.execute (parse_exn (line ~id:0 e)) with
  | Ok doc -> doc
  | Error err ->
    failwith (Printf.sprintf "one-shot %s/%s: %s" e.app e.isa err.Service.Protocol.message)

let twoq_of doc =
  match doc with
  | Njson.Obj fields -> (
    match List.assoc_opt "twoq" fields with
    | Some (Njson.Int n) -> n
    | _ -> failwith "reply without twoq")
  | _ -> failwith "reply is not an object"

(* exact counts of a run: the digest of every one-shot answer *)
let fingerprint docs =
  String.concat ";"
    (Array.to_list
       (Array.map (fun d -> Digest.to_hex (Digest.string (Njson.to_string ~indent:0 d))) docs))

type pass = {
  latency : float array;  (** per request, seconds *)
  replies : string array;  (** dropped once checked *)
  wall : float;
}

(* One pass of the closed loop over [lines]. *)
let closed_loop server lines =
  let total = Array.length lines in
  let sent = Array.make total 0.0 and got = Array.make total 0.0 in
  let replies = Array.make total "" in
  let remaining = Atomic.make total in
  let m = Mutex.create () and cv = Condition.create () in
  let rec submit n =
    sent.(n) <- C.now ();
    Service.Server.submit_line server
      ~reply:(fun reply ->
        got.(n) <- C.now ();
        replies.(n) <- reply;
        if n + clients < total then submit (n + clients);
        if Atomic.fetch_and_add remaining (-1) = 1 then
          Mutex.protect m (fun () -> Condition.broadcast cv))
      lines.(n)
  in
  let t0 = C.now () in
  for c = 0 to min clients total - 1 do
    submit c
  done;
  Mutex.protect m (fun () ->
      while Atomic.get remaining > 0 do
        Condition.wait cv m
      done);
  let t1 = Array.fold_left Float.max t0 got in
  { latency = Array.mapi (fun i g -> g -. sent.(i)) got; replies; wall = t1 -. t0 }

let counter name = Obs.Counter.get (Obs.Counter.create name)

(* ---------- the run ---------- *)

let run (args : C.args) =
  let hot = ref (hot_set args.C.seed) in
  let h = Array.length !hot in
  let total = h * reps in
  let lines = Array.init total (fun n -> line ~id:n !hot.(n mod h)) in
  (* preparation: the one-shot answers, cold (or snapshot-warm) at pool 1 *)
  let docs, cold = Curves.prepare args (fun () -> Array.map one_shot !hot) in
  C.log "perfbench: serve preparation computed %d curves cold" cold;
  let expected n = Service.Protocol.response_ok ~id:(Njson.Int n) docs.(n mod h) in
  (* the traced run times Ops.execute per request id *)
  let exec_s = Array.make total 0.0 in
  let exec =
    if args.C.trace then
      Some
        (fun (req : Service.Protocol.request) ->
          let t0 = C.now () in
          let r = Obs.Span.with_ "bench.service.exec" (fun () -> Service.Ops.execute req) in
          (match req.Service.Protocol.id with
          | Njson.Int n -> exec_s.(n) <- exec_s.(n) +. (C.now () -. t0)
          | _ -> ());
          r)
    else None
  in
  let config = { Service.Server.default_config with workers } in
  (* Every pass goes to one resident server, as in the service.  A
     server per round, drained at the round's end, made VmHWM grow with
     the passes served while live data stayed flat (17 to 41 MiB over a
     20 s run, against 21 MiB with one server): OCaml 5.1 keeps the
     major heap that a drained server's worker domains grew. *)
  let server = Service.Server.create ?exec config in
  let entries = ref 0 and load_s = ref [] in
  (* set-up: what a warm restart does — inputs, devices and the
     snapshot, as study, then starting a server.  The resident server
     keeps serving, so the new one is drained at once, untimed. *)
  let setup () =
    let t0 = C.now () in
    hot := hot_set args.C.seed;
    Array.iter (fun e -> ignore (Service.Ops.resolve_device e.device)) !hot;
    let e, s = Curves.load args in
    let fresh = Service.Server.create config in
    let t = C.now () -. t0 in
    Service.Server.drain fresh;
    entries := e;
    load_s := s :: !load_s;
    t
  in
  let hits = ref 0 and misses = ref 0 and passes = ref [] and traced_passes = ref [] in
  let norm_latency = ref [] in
  let exec_total = ref 0.0 and wait = ref [] in
  let rejected0 = counter "service.rejected" and retries0 = counter "service.retries" in
  let pass k =
    let traced = args.C.trace && k mod 2 = 1 in
    Array.fill exec_s 0 total 0.0;
    let h0, m0 = Decompose.Cache.stats () in
    if traced then Tracing.on ();
    let before = C.reference_loop () in
    let p = closed_loop server lines in
    let after = C.reference_loop () in
    if traced then Tracing.off ();
    let h1, m1 = Decompose.Cache.stats () in
    hits := !hits + (h1 - h0);
    misses := !misses + (m1 - m0);
    Array.iteri
      (fun n r ->
        if r <> expected n then C.fail "serve: reply %d differs from the one-shot answer" n)
      p.replies;
    if args.C.trace then begin
      exec_total := !exec_total +. Stats.sum exec_s;
      wait := Array.mapi (fun n l -> l -. exec_s.(n)) p.latency :: !wait
    end;
    let p = { p with replies = [||] } in
    if traced then traced_passes := p :: !traced_passes
    else begin
      passes := p :: !passes;
      (* the pass runs between two reference-loop samples *)
      norm_latency := Array.map (fun l -> C.normalize l ~before ~after) p.latency :: !norm_latency
    end
  in
  (* set-up starts two domains: once a round *)
  let loop = C.run_loop ~setup_every:infinity ~seconds:args.C.seconds ~setup ~pass () in
  Service.Server.drain server;
  if !misses > 0 then C.fail "serve: %d cache misses in the timed passes" !misses;
  let untraced = Array.of_list !passes in
  let throughput ps = Array.map (fun p -> float_of_int total /. p.wall) ps in
  let median_thr ps = Stats.median (throughput ps) in
  (* latency: each request's median normalized latency over the
     passes, so queueing behind the other client, contention on the
     cache mutex and worker GC slices stay in the figures.  throughput:
     the closed loop's, by Little's law from those latencies (clients /
     mean latency), so a pass that a host stall stretches does not set
     it *)
  let latency = Stats.per_item_median (Array.of_list !norm_latency) in
  let closed_loop_thr = float_of_int clients /. Stats.mean latency in
  let tail = Stats.tail latency in
  let twoq = Stats.sum (Array.map (fun d -> float_of_int (twoq_of d)) docs) in
  let logical_twoq =
    Stats.sum
      (Array.map
         (fun e ->
           float_of_int
             (Qcir.Circuit.two_qubit_count
                (Service.Ops.benchmark_circuit ~app:e.app ~qubits:e.qubits ~seed:e.seed)))
         !hot)
  in
  let per_layer () =
    let tbl = Tracing.table (Tracing.spans ()) in
    let traced_wall = Stats.sum (Array.map (fun p -> p.wall) (Array.of_list !traced_passes)) in
    let all_wall = traced_wall +. Stats.sum (Array.map (fun p -> p.wall) untraced) in
    let requests = total * List.length (!passes @ !traced_passes) in
    let waits = Array.concat !wait in
    let keys =
      Array.to_list !hot
      |> List.concat_map (fun e ->
             let circuit =
               Service.Ops.benchmark_circuit ~app:e.app ~qubits:e.qubits ~seed:e.seed
             in
             Curves.routed_keys ~options:Compiler.Pipeline.default_options
               ~device:(Service.Ops.resolve_device ~qubits:(max 4 e.qubits) e.device)
               ~isa:(Isa.Set.find_exn e.isa) circuit)
    in
    let lookup =
      Obs.Span.with_ "bench.decompose.lookup" (fun () ->
          Curves.lookup_us ~nuop:Decompose.Nuop.default_options ~domains:workers keys)
    in
    let per_call_us ~n f =
      Stats.median
        (Array.init 7 (fun _ ->
             let t0 = C.now () in
             for i = 0 to n - 1 do
               f i
             done;
             1e6 *. (C.now () -. t0) /. float_of_int n))
    in
    let resolve =
      Obs.Span.with_ "bench.device.resolve" (fun () ->
          per_call_us ~n:(4 * h) (fun i ->
              let e = !hot.(i mod h) in
              ignore (Service.Ops.resolve_device ~qubits:(max 4 e.qubits) e.device)))
    in
    let parse =
      Obs.Span.with_ "bench.service.parse" (fun () ->
          per_call_us ~n:total (fun i -> ignore (Service.Protocol.parse lines.(i))))
    in
    let render =
      Obs.Span.with_ "bench.service.render" (fun () ->
          per_call_us ~n:total (fun i ->
              ignore (Service.Protocol.response_ok ~id:(Njson.Int i) docs.(i mod h))))
    in
    let wait_tail = Stats.tail waits in
    let traced_thr = median_thr (Array.of_list !traced_passes) in
    Study.compiler_metrics tbl
    @ [
        C.metric "decompose.cache_hit_frac" "share"
          (float_of_int !hits /. float_of_int (!hits + !misses));
        C.metric "decompose.cache_lookup_us" "us" lookup;
        C.metric "decompose.snapshot_load_ms" "ms"
          (C.ms (Stats.median (Array.of_list !load_s)));
        C.metric "decompose.snapshot_entries" "count" (float_of_int !entries);
        C.metric "device.resolve_us" "us" resolve;
        C.metric "service.exec_ms" "ms" (C.ms !exec_total /. float_of_int requests);
        C.metric "service.wait_ms.p50" "ms" (C.ms (Stats.median waits));
        C.metric "service.wait_ms.tail" "ms" (C.ms wait_tail.Stats.value);
        C.metric "service.parse_us" "us" parse;
        C.metric "service.render_us" "us" render;
        C.metric "service.worker_busy_frac" "share"
          (!exec_total /. (float_of_int workers *. all_wall));
        C.metric "service.rejected" "count"
          (float_of_int (counter "service.rejected" - rejected0));
        C.metric "service.retries" "count"
          (float_of_int (counter "service.retries" - retries0));
        C.metric "obs.trace_overhead_frac" "share"
          ((median_thr untraced /. traced_thr) -. 1.0);
        C.metric "trace.coverage_frac" "share"
          (Tracing.coverage ~name:"service.request"
             ~busy:(float_of_int workers *. traced_wall));
      ]
  in
  {
    C.outcome =
      {
        C.attempted = total * loop.C.passes;
        metrics =
          [
            C.metric "setup_s" "s" (Stats.median loop.C.setup_s);
            C.metric "throughput" "items/s" closed_loop_thr;
            C.metric "p50_ms" "ms" (C.ms (Stats.median latency));
            C.metric "tail_ms" "ms" (C.ms tail.Stats.value);
            C.metric "peak_rss_mb" "MiB" (C.peak_rss_mb ());
            C.metric "twoq_gates" "gates" (twoq /. float_of_int h);
            C.metric "mean_layers" "layers" (twoq /. logical_twoq);
          ];
        fingerprint = fingerprint docs;
        loop;
        raw =
          [
            ("latency_s", Array.map (fun p -> p.latency) untraced);
            ("latency_norm_s", Array.of_list !norm_latency);
            ("wall_s", [| Array.map (fun p -> p.wall) untraced |]);
          ];
        record =
          [
            ("hot_set", string_of_int h);
            ("requests_per_pass", string_of_int total);
            ("median_pass_throughput", Printf.sprintf "%.1f" (median_thr untraced));
            ("workers", string_of_int workers);
            ("clients", string_of_int clients);
            ("cold_curves", string_of_int cold);
            ("tail_percentile", Printf.sprintf "%.1f" tail.Stats.percentile);
            ("tail_samples", string_of_int tail.Stats.samples);
          ];
      };
    per_layer;
  }

(* The child process of the determinism guard: the one-shot answers on
   the snapshot. *)
let fingerprint_only args =
  ignore (Curves.load args);
  fingerprint (Array.map one_shot (hot_set args.C.seed))
