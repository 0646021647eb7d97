(* Workload "study": warm compile plus exact noisy simulation, the
   traffic of the Fig 9 and Fig 10 a-d reliability studies.

   Each item is one Core.Study.evaluate_circuit at pool size 1 on a
   cache warmed from the curve snapshot, so the compiler, schedule, sim
   and metrics layers do the work while NuOp stays idle and the cache
   is read from one domain. *)

open Linalg
module C = Common

let options =
  { Compiler.Pipeline.default_options with nuop = Core.Config.quick.Core.Config.nuop }

type item = {
  label : string;
  device : Device.t;
  isa : Isa.Set.t;
  metric : Core.Study.metric;
  circuit : Qcir.Circuit.t;
}

(* Computational-basis input k, then the QFT (as Figs 9c and 10c). *)
let qft_circuit n k =
  let c = ref (Qcir.Circuit.empty n) in
  for q = 0 to n - 1 do
    if (k lsr q) land 1 = 1 then c := Qcir.Circuit.add_gate !c Gates.Gate.x [| q |]
  done;
  Qcir.Circuit.append !c (Apps.Qft.circuit n)

(* Fig 9 on Aspen-8 with the Rigetti sets: 3-qubit QV, 4-qubit QAOA
   and the 3-qubit QFT on four inputs.  Fig 10 a-d on the 6-qubit
   Sycamore line with the single-type Google sets and Full_fSim:
   4-qubit QV, 4-qubit QAOA and the 4-qubit QFT on three inputs, plus
   the 6-qubit FH step on Full_fSim.  As in the figures, which average
   each set over many random circuits, every set gets its own QV and
   QAOA circuits and QFT basis inputs, all drawn from the seed: a pass
   samples the circuit distribution instead of one draw, so its cost
   moves little from seed to seed.  A QFT's cost does not depend on its
   input, so the QFT inputs put items of fixed cost where the median
   and the tail item fall: with the 3-qubit QFT on one input the median
   fell among the random QAOA circuits and moved with the seed.  A pass
   takes well under a second on a 2-vCPU host, so each item is timed
   in dozens of passes a run; the FH step, one density simulation ten
   times as long as any other item, is evaluated once a pass. *)
let generate seed =
  let rng = Rng.create seed in
  let aspen = Device.aspen8 () and line = Device.sycamore_line 6 in
  let qv n _ = ("qv" ^ string_of_int n, Core.Study.Hop, List.hd (Apps.Qv.circuits rng ~count:1 n)) in
  let qaoa n _ =
    ("qaoa" ^ string_of_int n, Core.Study.Xed, List.hd (Apps.Qaoa.circuits rng ~count:1 n))
  in
  let qft n =
    let inputs = Rng.permutation rng (1 lsl n) in
    fun k -> ("qft" ^ string_of_int n, Core.Study.State_fidelity, qft_circuit n inputs.(k))
  in
  (* [circuit k] is the circuit of the k-th set *)
  let per_set device sets ?(offset = 0) circuit =
    List.mapi
      (fun k isa ->
        let label, metric, circuit = circuit (k + offset) in
        {
          label = Printf.sprintf "%s.%d/%s" label (k + offset) (Isa.Set.name isa);
          device;
          isa;
          metric;
          circuit;
        })
      sets
  in
  let rigetti = Isa.Set.(rigetti_singles @ rigetti_multis @ [ full_xy ]) in
  let google = Isa.Set.(google_singles @ [ full_fsim ]) in
  (* drawn in this order, one binding at a time *)
  let qv3 = per_set aspen rigetti (qv 3) in
  let qaoa4a = per_set aspen rigetti (qaoa 4) in
  let qft3 =
    let c = qft 3 in
    List.concat_map
      (fun i -> per_set aspen rigetti ~offset:(i * List.length rigetti) (fun k -> c (k mod 8)))
      [ 0; 1; 2; 3 ]
  in
  let qv4 = per_set line google (qv 4) in
  let qaoa4s = per_set line google (qaoa 4) in
  let qft4 =
    let c = qft 4 in
    List.concat_map
      (fun i -> per_set line google ~offset:(i * List.length google) (fun k -> c (k mod 16)))
      [ 0; 1; 2 ]
  in
  let fh6 =
    per_set line [ Isa.Set.full_fsim ] (fun _ ->
        ("fh6", Core.Study.Xeb_fidelity, Apps.Fermi_hubbard.circuit 6))
  in
  Array.of_list (qv3 @ qaoa4a @ qft3 @ qv4 @ qaoa4s @ qft4 @ fh6)

let evaluate it =
  Core.Study.evaluate_circuit ~options ~device:it.device ~isa:it.isa ~metric:it.metric
    it.circuit

let placement it =
  match
    Compiler.Mapping.best_line (Device.calibration it.device) it.isa
      (Qcir.Circuit.n_qubits it.circuit)
  with
  | Some p -> p
  | None -> invalid_arg ("no placement for " ^ it.label)

let probabilities_close a b tol =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) a b

(* The output checks of one item (satellite: independent references). *)
let check it =
  let placement = placement it in
  let compiled =
    Compiler.Pipeline.compile ~options ~device:it.device ~isa:it.isa ~placement it.circuit
  in
  let c = compiled.Compiler.Pipeline.circuit in
  let nm = Compiler.Pipeline.noise_model ~device:it.device compiled in
  let noisy = Sim.Noisy.output_probabilities nm c in
  if
    Array.exists (fun p -> p < -1e-12) noisy
    || Float.abs (Stats.sum noisy -. 1.0) > 1e-9
  then C.fail "%s: noisy output is not a probability vector" it.label;
  let density = Sim.Noisy.output_probabilities Sim.Noisy.ideal c in
  let state = Sim.State.probabilities (Sim.State.run_circuit c) in
  if not (probabilities_close density state 1e-9) then
    C.fail "%s: ideal density and state-vector results differ" it.label;
  (* an exact-mode compile reproduces the logical distribution within
     sqrt(8 (1 - F)) per decomposed block, in total variation *)
  let exact =
    Compiler.Pipeline.compile
      ~options:{ options with approximate = false }
      ~device:it.device ~isa:it.isa ~placement it.circuit
  in
  let got =
    Compiler.Pipeline.logical_probabilities exact
      (Sim.State.probabilities (Sim.State.run_circuit exact.Compiler.Pipeline.circuit))
  in
  let want = Sim.State.probabilities (Sim.State.run_circuit it.circuit) in
  let blocks =
    Qcir.Circuit.two_qubit_count it.circuit + exact.Compiler.Pipeline.swap_count
  in
  let tol = float_of_int blocks *. sqrt (8.0 *. (1.0 -. options.exact_threshold)) in
  let tv = 0.5 *. Stats.sum (Array.map2 (fun a b -> Float.abs (a -. b)) got want) in
  if tv > tol then
    C.fail "%s: exact compile is %.3g from the logical distribution (allowed %.3g)" it.label tv
      tol

type evaluated = { time_s : float; words : float; ev : Core.Study.evaluation }

let fingerprint (es : Core.Study.evaluation array) =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun (e : Core.Study.evaluation) ->
            Printf.sprintf "%d/%d/%h/%h" e.twoq e.swaps e.value e.esp)
          es))

let words_fingerprint ws =
  String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.0f") ws))

(* ---------- per-layer probes (traced run) ---------- *)

(* sim layer: the density simulation of each compiled circuit and the
   state-vector run of its logical circuit, timed from outside. *)
let sim_probe items =
  let reps = 2 in
  let per_item =
    Array.map
      (fun it ->
        let compiled =
          Compiler.Pipeline.compile ~options ~device:it.device ~isa:it.isa
            ~placement:(placement it) it.circuit
        in
        let nm = Compiler.Pipeline.noise_model ~device:it.device compiled in
        let c = compiled.Compiler.Pipeline.circuit in
        let time f =
          Array.fold_left Float.min infinity
            (Array.init reps (fun _ ->
                 let t0 = C.now () in
                 ignore (Sys.opaque_identity (f ()));
                 C.now () -. t0))
        in
        let density =
          Obs.Span.with_ "bench.sim.density" (fun () ->
              time (fun () -> Sim.Noisy.output_probabilities nm c))
        in
        let state =
          Obs.Span.with_ "bench.sim.state" (fun () ->
              time (fun () -> Sim.State.run_circuit it.circuit))
        in
        (density, state, float_of_int (Qcir.Circuit.length c)))
      items
  in
  let d = Array.map (fun (d, _, _) -> d) per_item in
  let s = Array.map (fun (_, s, _) -> s) per_item in
  let instrs = Stats.sum (Array.map (fun (_, _, n) -> n) per_item) in
  (C.ms (Stats.mean d), C.ms (Stats.mean s), instrs /. Stats.sum d)

(* Per compile: mean pass_manager.run time and each pass's mean self
   time, from the program's own spans. *)
let compiler_metrics tbl =
  let mean pick name =
    let r = Tracing.row_of tbl name in
    if r.Tracing.count = 0 then 0.0 else C.ms (pick r) /. float_of_int r.Tracing.count
  in
  C.metric "compiler.compile_ms" "ms" (mean (fun r -> r.Tracing.total) "pass_manager.run")
  :: List.map
       (fun p ->
         C.metric
           (Printf.sprintf "compiler.pass.%s_ms" p)
           "ms"
           (mean (fun r -> r.Tracing.self) ("pass." ^ p)))
       [ "place"; "route"; "lower"; "compact"; "schedule" ]

(* ---------- the run ---------- *)

let run (args : C.args) =
  let items = ref (generate args.C.seed) in
  let n = Array.length !items in
  let logical_twoq =
    Stats.sum
      (Array.map (fun it -> float_of_int (Qcir.Circuit.two_qubit_count it.circuit)) !items)
  in
  (* preparation: one cold (or snapshot-warm) run at pool 1, the output
     checks, then an empty cache *)
  let reference, cold =
    Curves.prepare args (fun () ->
        let es = Array.map evaluate !items in
        Array.iter check !items;
        es)
  in
  C.log "perfbench: study preparation computed %d curves cold" cold;
  let times = ref [] and norm_times = ref [] and traced_times = ref [] in
  let traced_wall = ref 0.0 in
  let fps = ref [] and word_fps = ref [] and words = ref [||] in
  let hits = ref 0 and misses = ref 0 in
  let entries = ref 0 and load_s = ref [] in
  let setup () =
    C.timed (fun () ->
        items := generate args.C.seed;
        let e, s = Curves.load args in
        entries := e;
        load_s := s :: !load_s)
  in
  let timed it =
    let t0 = C.now () in
    let w0 = Gc.minor_words () in
    let ev = evaluate it in
    let words = Gc.minor_words () -. w0 in
    { time_s = C.now () -. t0; words; ev }
  in
  let pass k =
    let h0, m0 = Decompose.Cache.stats () in
    let rs =
      if args.C.trace && k mod 2 = 1 then begin
        let t0 = C.now () in
        Tracing.on ();
        let rs =
          Array.mapi
            (fun i it ->
              Obs.Span.with_ ~attrs:[ ("item", string_of_int i) ] "bench.study.item" (fun () ->
                  timed it))
            !items
        in
        Tracing.off ();
        traced_wall := !traced_wall +. (C.now () -. t0);
        traced_times := Array.map (fun r -> r.time_s) rs :: !traced_times;
        rs
      end
      else begin
        let rs, norm =
          C.bracketed
            (fun _ it ->
              let r = timed it in
              (r, r.time_s))
            !items
        in
        times := Array.map (fun r -> r.time_s) rs :: !times;
        norm_times := norm :: !norm_times;
        (* spans allocate, so allocation counts come from untraced passes *)
        words := Array.map (fun r -> r.words) rs;
        word_fps := words_fingerprint !words :: !word_fps;
        rs
      end
    in
    let h1, m1 = Decompose.Cache.stats () in
    hits := !hits + (h1 - h0);
    misses := !misses + (m1 - m0);
    fps := fingerprint (Array.map (fun r -> r.ev) rs) :: !fps
  in
  let loop = C.run_loop ~seconds:args.C.seconds ~setup ~pass () in
  C.same_every_pass "study" (fingerprint reference :: List.rev !fps);
  C.same_every_pass "study allocation" (List.rev !word_fps);
  if !misses > 0 then C.fail "study: %d cache misses in the timed passes" !misses;
  (* each item's median normalized time over the untraced passes *)
  let per_item = Stats.per_item_median (Array.of_list !norm_times) in
  let total_s = Stats.sum per_item in
  let tail = Stats.tail per_item in
  let raw_total ts = Stats.sum (Stats.per_item_median (Array.of_list ts)) in
  let twoq =
    Stats.sum (Array.map (fun (e : Core.Study.evaluation) -> float_of_int e.twoq) reference)
  in
  let per_layer () =
    let tbl = Tracing.table (Tracing.spans ()) in
    let density_ms, state_ms, instrs_per_s = sim_probe !items in
    let keys =
      Array.to_list !items
      |> List.concat_map (fun it ->
             Curves.routed_keys ~options ~device:it.device ~isa:it.isa ~placement:(placement it)
               it.circuit)
    in
    let lookup =
      Obs.Span.with_ "bench.decompose.lookup" (fun () ->
          Curves.lookup_us ~nuop:options.Compiler.Pass.nuop ~domains:1 keys)
    in
    let item = Tracing.row_of tbl "bench.study.item" in
    compiler_metrics tbl
    @ [
        C.metric "decompose.cache_hit_frac" "share"
          (float_of_int !hits /. float_of_int (!hits + !misses));
        C.metric "decompose.cache_lookup_us" "us" lookup;
        C.metric "decompose.snapshot_load_ms" "ms"
          (C.ms (Stats.median (Array.of_list !load_s)));
        C.metric "decompose.snapshot_entries" "count" (float_of_int !entries);
        C.metric "sim.density_ms" "ms" density_ms;
        C.metric "sim.state_ms" "ms" state_ms;
        C.metric "sim.density_instrs_per_s" "1/s" instrs_per_s;
        C.metric "core.study_self_ms" "ms"
          (C.ms item.Tracing.self /. float_of_int item.Tracing.count);
        C.metric "gc.minor_words_per_item" "words" (Stats.mean !words);
        C.metric "obs.trace_overhead_frac" "share"
          ((raw_total !traced_times /. raw_total !times) -. 1.0);
        C.metric "trace.coverage_frac" "share"
          (Tracing.coverage ~name:"bench.study.item" ~busy:!traced_wall);
      ]
  in
  {
    C.outcome =
      {
        C.attempted = n * loop.C.passes;
        metrics =
          [
            C.metric "setup_s" "s" (Stats.median loop.C.setup_s);
            C.metric "throughput" "items/s" (float_of_int n /. total_s);
            C.metric "p50_ms" "ms" (C.ms (Stats.median per_item));
            C.metric "tail_ms" "ms" (C.ms tail.Stats.value);
            C.metric "peak_rss_mb" "MiB" (C.peak_rss_mb ());
            C.metric "twoq_gates" "gates" (twoq /. float_of_int n);
            C.metric "mean_layers" "layers" (twoq /. logical_twoq);
          ];
        fingerprint = fingerprint reference ^ "|" ^ words_fingerprint !words;
        loop;
        raw =
          [
            ("item_s", Array.of_list (List.rev !times));
            ("item_norm_s", Array.of_list (List.rev !norm_times));
          ];
        record =
          [
            ("items", string_of_int n);
            ("raw_throughput", Printf.sprintf "%.3f" (float_of_int n /. raw_total !times));
            ("cold_curves", string_of_int cold);
            ("snapshot_entries", string_of_int !entries);
            ("tail_percentile", Printf.sprintf "%.1f" tail.Stats.percentile);
            ("tail_samples", string_of_int tail.Stats.samples);
          ];
      };
    per_layer;
  }

(* The child process of the determinism guard: one pass on the
   snapshot, exact counts only. *)
let fingerprint_only args =
  let items = generate args.C.seed in
  ignore (Curves.load args);
  let rs =
    Array.map
      (fun it ->
        let w0 = Gc.minor_words () in
        let ev = evaluate it in
        (ev, Gc.minor_words () -. w0))
      items
  in
  fingerprint (Array.map fst rs) ^ "|" ^ words_fingerprint (Array.map snd rs)
