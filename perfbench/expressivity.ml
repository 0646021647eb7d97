(* Workload "expressivity": cold NuOp scoring, the traffic of Figs 6
   and 8 and of `nuop design`.

   Each item is one (gate type, application unitary) pair, scored
   through Isa.Score.table on an empty Decompose.Cache with the
   quick-scale NuOp options of `bench all`, at pool size 1.  Here the
   linalg, decompose and optimize layers do nearly all the work, and
   this is the only workload that fills the cache. *)

open Linalg
module C = Common

let options = Core.Config.quick.Core.Config.nuop
let threshold = Isa.Score.default_threshold

(* Su4_unitaries.default_counts proportions (QV:QAOA:QFT:FH:SWAP =
   25:25:10:15:1), scaled down to twelve unitaries.  The counts and
   the pool below are chosen so that the per-pair cost distribution
   holds its shape from seed to seed (NOTES.md measures it): its median
   falls among many two-layer fits of the QAOA, QFT and FH unitaries,
   and the item ranked ten from the top (tail_ms) is the cheapest of
   the eleven SWAP-type pairs that never converge. *)
let counts = Apps.Su4_unitaries.[ (Qv, 3); (Qaoa, 4); (Qft, 1); (Fh, 3); (Swap, 1) ]

(* SYC, CZ and fSim(pi/6, pi) (S1, S3 and S7, which are also points of
   the Fig 8 fSim plane), SWAP and both families.  A pass over every
   pair takes about a second on a 2-vCPU host, so each pair is timed in
   dozens of passes a run.  SWAP's curves on the other unitaries never
   converge and run every layer and start: they are the expensive
   tail. *)
let pool () = Gates.Gate_type.[ s1; s3; s7; swap_type; Fsim_family; Xy_family ]

type inputs = {
  unitaries : (string * Mat.t) array;
  types : Gates.Gate_type.t array;
  pairs : (int * int) array;  (** (type index, unitary index) *)
}

let generate seed =
  let samples = Isa.Score.samples ~counts (Rng.create seed) in
  let unitaries =
    Array.of_list (List.concat_map (fun (app, us) -> List.map (fun u -> (app, u)) us) samples)
  in
  let types = Array.of_list (pool ()) in
  let nu = Array.length unitaries in
  let pairs = Array.init (Array.length types * nu) (fun k -> (k / nu, k mod nu)) in
  { unitaries; types; pairs }

type scored = {
  layers : int;  (** fewest exact layers (Score's table) *)
  curve_len : int;
  unconverged : bool;
  words : float;  (** minor words allocated by the scoring call *)
  misses : int;
  time_s : float;
}

(* F_d of a decomposition, re-simulated gate by gate with the state
   vector simulator on the four basis states: column b of the
   implemented unitary is the circuit applied to |b>.  Qubit 1 is the
   template's first qubit so the state index equals the matrix index. *)
let simulated_fd (d : Decompose.Nuop.t) target =
  let circuit = Decompose.Nuop.to_circuit d ~n_qubits:2 ~qubits:(1, 0) in
  let tr = ref Complex.zero in
  for b = 0 to 3 do
    let st = Sim.State.of_basis 2 b in
    Sim.State.run_circuit_on st circuit;
    for a = 0 to 3 do
      let want = Complex.conj (Mat.get target a b) in
      tr := Complex.add !tr (Complex.mul want (Sim.State.amplitude st a))
    done
  done;
  Complex.norm !tr /. 4.0

let cz_class ty =
  (not (Gates.Gate_type.is_family ty))
  && Decompose.Weyl.locally_equivalent (Gates.Gate_type.instantiate ty [||]) Gates.Twoq.cz

(* The output check of one scored pair (satellite: independent
   references), run while its curve is still cached. *)
let check inp (ti, ui) ~misses =
  let ty = inp.types.(ti) and _, u = inp.unitaries.(ui) in
  let name = Printf.sprintf "pair %s x unitary %d" (Gates.Gate_type.name ty) ui in
  let d = Decompose.Cache.decompose_exact ~options ~threshold ty ~target:u in
  let fd = simulated_fd d u in
  if Float.abs (fd -. d.Decompose.Nuop.fd) > 1e-9 then
    C.fail "%s: simulated F_d %.12f differs from reported %.12f" name fd d.Decompose.Nuop.fd;
  if cz_class ty && d.Decompose.Nuop.layers < Decompose.Weyl.cnot_count u && fd < threshold
  then
    C.fail "%s: %d layers is below the CNOT count %d without reaching the threshold" name
      d.Decompose.Nuop.layers (Decompose.Weyl.cnot_count u);
  if misses <> 1 then C.fail "%s: %d cache misses, expected 1 cold curve" name misses

(* One item: cold-score one pair; [checked] also runs its output check
   (untimed). *)
let score ?(checked = false) inp (ti, ui) =
  let ty = inp.types.(ti) and app, u = inp.unitaries.(ui) in
  Decompose.Cache.clear ();
  let t0 = C.now () in
  let w0 = Gc.minor_words () in
  let table = Isa.Score.table ~options ~threshold ~domains:1 ~samples:[ (app, [ u ]) ] [ ty ] in
  let words = Gc.minor_words () -. w0 in
  let time_s = C.now () -. t0 in
  let _, misses = Decompose.Cache.stats () in
  if checked then check inp (ti, ui) ~misses;
  let s = Isa.Score.of_table table (Isa.Set.make "pair" [ ty ]) in
  let curve = Decompose.Cache.fd_curve ~options ty ~target:u in
  let _, _, last_fd = curve.(Array.length curve - 1) in
  {
    layers = int_of_float s.Isa.Score.mean_layers;
    curve_len = Array.length curve;
    unconverged = last_fd < options.Decompose.Nuop.convergence_fd;
    words;
    misses;
    time_s;
  }

let fingerprint (rs : scored array) =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun r ->
            Printf.sprintf "%d/%d/%b/%.0f" r.layers r.curve_len r.unconverged r.words)
          rs))

(* mean over unitaries of the fewest layers any pool type needs *)
let mean_best_layers inp (rs : scored array) =
  let nu = Array.length inp.unitaries in
  let best = Array.make nu max_int in
  Array.iteri
    (fun k (_, ui) -> best.(ui) <- min best.(ui) rs.(k).layers)
    inp.pairs;
  Stats.mean (Array.map float_of_int best)

(* ---------- per-layer probes (traced run) ---------- *)

(* ns per call of [f], median over [reps] batches of [n] calls *)
let ns_per_call ?(reps = 7) ~n f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = C.now () in
         for _ = 1 to n do
           f ()
         done;
         1e9 *. (C.now () -. t0) /. float_of_int n))

let probe_rng seed = Rng.create (seed + 7919)

let random_params rng n = Array.init n (fun _ -> Rng.uniform rng (-.Float.pi) Float.pi)

let template_probe inp seed ty =
  let tpl = Decompose.Template.create ty ~layers:3 in
  let x = random_params (probe_rng seed) (Decompose.Template.param_count tpl) in
  let _, target = inp.unitaries.(0) in
  let eval () = ignore (Sys.opaque_identity (Decompose.Template.fidelity tpl x ~target)) in
  eval ();
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    eval ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  (ns_per_call ~n:20_000 eval, words)

(* Seeded BFGS fits of the workload's own pairs at their exact layer
   counts, through Optimize.Bfgs's public signature. *)
let fit_probe inp seed (rs : scored array) =
  let rng = probe_rng seed in
  let evals = ref 0 and iters = ref 0 and fit_s = ref 0.0 and obj_s = ref 0.0 in
  Array.iteri
    (fun k (ti, ui) ->
      let ty = inp.types.(ti) and _, target = inp.unitaries.(ui) in
      let tpl = Decompose.Template.create ty ~layers:(max 1 rs.(k).layers) in
      let x0 = random_params rng (Decompose.Template.param_count tpl) in
      let objective x =
        let t0 = C.now () in
        let v = Decompose.Template.infidelity tpl x ~target in
        obj_s := !obj_s +. (C.now () -. t0);
        v
      in
      let t0 = C.now () in
      let r =
        Obs.Span.with_ "bench.optimize.fit" (fun () ->
            Optimize.Bfgs.minimize ~options:options.Decompose.Nuop.bfgs objective x0)
      in
      fit_s := !fit_s +. (C.now () -. t0);
      evals := !evals + r.Optimize.Bfgs.evaluations;
      iters := !iters + r.Optimize.Bfgs.iterations)
    inp.pairs;
  let n = float_of_int (Array.length inp.pairs) in
  (float_of_int !evals /. n, float_of_int !iters /. n, 1.0 -. (!obj_s /. !fit_s))

let mat4_probe inp =
  let _, a = inp.unitaries.(0) and _, b = inp.unitaries.(Array.length inp.unitaries - 1) in
  let dst = Mat.create 4 4 in
  ns_per_call ~n:200_000 (fun () -> Mat.mul_into ~dst a b)

(* ---------- the run ---------- *)

let run (args : C.args) =
  let inp = ref (generate args.C.seed) in
  let n = Array.length !inp.pairs in
  let times = ref [] and norm_times = ref [] and traced_times = ref [] in
  let traced_wall = ref 0.0 and fps = ref [] and first = ref [||] in
  let pass k =
    let rs =
      if args.C.trace && k mod 2 = 1 then begin
        let t0 = C.now () in
        Tracing.on ();
        let rs =
          Array.mapi
            (fun i p ->
              Obs.Span.with_ ~attrs:[ ("item", string_of_int i) ] "bench.expressivity.item"
                (fun () -> score !inp p))
            !inp.pairs
        in
        Tracing.off ();
        traced_wall := !traced_wall +. (C.now () -. t0);
        traced_times := Array.map (fun r -> r.time_s) rs :: !traced_times;
        rs
      end
      else begin
        let rs, norm =
          C.bracketed
            (fun _ p ->
              let r = score ~checked:(k = 0) !inp p in
              (r, r.time_s))
            !inp.pairs
        in
        times := Array.map (fun r -> r.time_s) rs :: !times;
        norm_times := norm :: !norm_times;
        rs
      end
    in
    if k = 0 then first := rs;
    fps := fingerprint rs :: !fps
  in
  (* set-up: generate the unitaries and gate types *)
  let setup () = C.timed (fun () -> inp := generate args.C.seed) in
  let loop = C.run_loop ~seconds:args.C.seconds ~setup ~pass () in
  C.same_every_pass "expressivity" (List.rev !fps);
  let inp = !inp and rs = !first in
  (* each item's median normalized time over the untraced passes *)
  let per_item = Stats.per_item_median (Array.of_list !norm_times) in
  let total_s = Stats.sum per_item in
  let tail = Stats.tail per_item in
  let raw_total ts = Stats.sum (Stats.per_item_median (Array.of_list ts)) in
  let per_layer () =
    let mat4 = Obs.Span.with_ "bench.linalg.mat4_mul" (fun () -> mat4_probe inp) in
    let eval_cz, words_cz =
      Obs.Span.with_ "bench.decompose.template_eval" (fun () ->
          template_probe inp args.C.seed Gates.Gate_type.s3)
    in
    let eval_family, _ =
      Obs.Span.with_ "bench.decompose.template_eval" (fun () ->
          template_probe inp args.C.seed Gates.Gate_type.Fsim_family)
    in
    let evals, iters, opt_self = fit_probe inp args.C.seed rs in
    let curve_layers = Stats.sum (Array.map (fun r -> float_of_int r.curve_len) rs) in
    let cz_excess =
      List.filter_map
        (fun k ->
          let ti, ui = inp.pairs.(k) in
          if cz_class inp.types.(ti) then
            Some
              (float_of_int
                 (rs.(k).layers - Decompose.Weyl.cnot_count (snd inp.unitaries.(ui))))
          else None)
        (List.init n Fun.id)
    in
    let words = Stats.mean (Array.map (fun r -> r.words) rs) in
    let misses = Array.fold_left (fun a r -> a + r.misses) 0 rs in
    [
      C.metric "linalg.mat4_mul_ns" "ns" mat4;
      C.metric "decompose.template_eval_ns" "ns" eval_cz;
      C.metric "decompose.template_eval_ns_family" "ns" eval_family;
      C.metric "decompose.template_words_per_eval" "words" words_cz;
      C.metric "decompose.template_floor_frac" "share" (2.0 *. 3.0 *. mat4 /. eval_cz);
      C.metric "decompose.layers_per_curve" "count" (curve_layers /. float_of_int n);
      C.metric "decompose.ms_per_layer" "ms" (C.ms total_s /. curve_layers);
      C.metric "decompose.unconverged_frac" "share"
        (Stats.mean (Array.map (fun r -> if r.unconverged then 1.0 else 0.0) rs));
      C.metric "decompose.excess_layers_cz" "layers" (Stats.mean (Array.of_list cz_excess));
      C.metric "decompose.minor_words_per_curve" "words" words;
      (* Score.table looks each curve up twice (exact, then approximate
         mode), so the figure counts curves: the share of the curves
         the items needed that came from the cache. *)
      C.metric "decompose.cache_hit_frac" "share"
        (1.0 -. (float_of_int misses /. float_of_int n));
      C.metric "optimize.evals_per_fit" "count" evals;
      C.metric "optimize.iters_per_fit" "count" iters;
      C.metric "optimize.self_frac" "share" opt_self;
      C.metric "gc.minor_words_per_item" "words" words;
      C.metric "obs.trace_overhead_frac" "share"
        ((raw_total !traced_times /. raw_total !times) -. 1.0);
      C.metric "trace.coverage_frac" "share"
        (Tracing.coverage ~name:"bench.expressivity.item" ~busy:!traced_wall);
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
            C.metric "twoq_gates" "gates"
              (Stats.mean (Array.map (fun r -> float_of_int r.layers) rs));
            C.metric "mean_layers" "layers" (mean_best_layers inp rs);
          ];
        fingerprint = fingerprint rs;
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
            ("tail_percentile", Printf.sprintf "%.1f" tail.Stats.percentile);
            ("tail_samples", string_of_int tail.Stats.samples);
          ];
      };
    per_layer;
  }

(* The child process of the determinism guard: one cold pass, exact
   counts only. *)
let fingerprint_only (args : C.args) =
  let inp = generate args.C.seed in
  fingerprint (Array.map (score inp) inp.pairs)
