(* NuOp: numerical-optimization gate decomposition (Sec V of the paper).

   Given a 4x4 application unitary and a hardware gate type, NuOp grows
   template circuits layer by layer, optimizing the single-qubit angles
   (and, for continuous families, the gate angles) with multistart BFGS to
   maximize the decomposition fidelity F_d (Eq 1).

   Two modes:
   - Exact: smallest layer count whose F_d reaches a threshold
     (e.g. 99.9999%), as in classic decomposition flows.
   - Approx: maximize F_d * F_h where F_h is the hardware fidelity of the
     template at that layer count (Eq 2) — fewer, noisier-tolerant gates
     on high-error devices. *)

open Linalg

type options = {
  min_layers : int;
      (** smallest template size; the paper starts at one layer, so
          application gates are never silently elided *)
  max_layers : int;
  starts : int;  (** multistart BFGS restarts per layer count *)
  bfgs : Optimize.Bfgs.options;
  seed : int;
  convergence_fd : float;
      (** treat F_d >= this as an exact representation; growing the
          template further cannot help *)
}

let default_options =
  {
    min_layers = 1;
    max_layers = 6;
    starts = 4;
    bfgs =
      {
        Optimize.Bfgs.default_options with
        max_iter = 120;
        grad_tol = 1e-7;
        f_tol = 1e-10;
      };
    seed = 7;
    convergence_fd = 1.0 -. 1e-8;
  }

type t = {
  gate_type : Gates.Gate_type.t;
  layers : int;
  params : float array;
  fd : float;  (** decomposition fidelity *)
  fh : float;  (** hardware fidelity of the implementation (1.0 if ignored) *)
}

let overall_fidelity d = d.fd *. d.fh

(* Work counters, read by a trace or a test; each fit adds its BFGS
   result's counts, so counting allocates nothing. *)
let curves = Obs.Counter.create "decompose.nuop.curves"
let fits = Obs.Counter.create "decompose.nuop.fits"
let gradients = Obs.Counter.create "decompose.nuop.gradients"
let bfgs_iterations = Obs.Counter.create "decompose.nuop.bfgs_iterations"

let count_fit (r : Optimize.Bfgs.result) =
  Obs.Counter.incr fits;
  Obs.Counter.add gradients r.gradients;
  Obs.Counter.add bfgs_iterations r.iterations

(* Best F_d achievable with a fixed number of layers. *)
let optimize_layers ?(options = default_options) gate_type ~layers ~target =
  let dim = Template.dim gate_type ~layers in
  let rng = Rng.create (options.seed + (1000 * layers)) in
  let bfgs = { options.bfgs with f_tol = 1.0 -. options.convergence_fd } in
  let run =
    (* near-zero first start: almost-identity single-qubit layers — the
       right basin for near-identity targets (small-angle QFT phases)
       and structured interactions; offset 0.1 avoids the exact-zero
       saddle of the template objective.

       The starts run on the Domain pool; each start allocates a
       private template because the workspace matrices are reused
       across objective evaluations and must not be shared between
       domains.  [rng] is private to this call, so the result is
       identical at every pool size.  The gradient is the template's
       own central difference, bit for bit Grad.central's. *)
    Optimize.Multistart.run_parallel
      ~first_start:(Array.make dim 0.1)
      ~rng ~starts:options.starts ~dim ~lo:(-.Float.pi) ~hi:Float.pi
      ~target:(1.0 -. options.convergence_fd)
      ~optimize:(fun x0 ->
        let template = Template.create gate_type ~layers in
        let objective params = Template.infidelity template params ~target in
        let gradient x ~g = Template.gradient template ~h:bfgs.fd_step x ~target ~g in
        Optimize.Bfgs.minimize ~options:bfgs ~gradient objective x0)
      ~value:(fun (r : Optimize.Bfgs.result) ->
        (* called once per start used, so the counters do not depend
           on the pool size *)
        count_fit r;
        r.f)
      ()
  in
  (run.best.x, 1.0 -. run.best.f)

(* The per-layer fidelity curve: best (params, F_d) for i = 0, 1, ...
   until F_d converges to 1 or max_layers is reached.  Both decomposition
   modes read this curve, and the compiler memoizes it per
   (unitary, gate type) so exact/approx/noise-adaptive selections across
   instruction sets share the optimization work. *)
let fd_curve ?(options = default_options) gate_type ~target =
  assert (options.min_layers >= 0 && options.min_layers <= options.max_layers);
  Obs.Counter.incr curves;
  let rec grow layers acc =
    if layers > options.max_layers then List.rev acc
    else begin
      let params, fd = optimize_layers ~options gate_type ~layers ~target in
      let acc = (layers, params, fd) :: acc in
      if fd >= options.convergence_fd then List.rev acc else grow (layers + 1) acc
    end
  in
  Array.of_list (grow options.min_layers [])

let default_threshold = 1.0 -. 1e-6

(* Smallest layer count reaching the threshold; falls back to the best
   found if the threshold is unreachable within max_layers. *)
let exact_of_curve ?(threshold = default_threshold) gate_type curve =
  assert (Array.length curve > 0);
  let best = ref None in
  (try
     Array.iter
       (fun (layers, params, fd) ->
         let cand = { gate_type; layers; params; fd; fh = 1.0 } in
         (match !best with
         | None -> best := Some cand
         | Some b -> if fd > b.fd then best := Some cand);
         if fd >= threshold then raise Exit)
       curve
   with Exit -> ());
  match !best with Some d -> d | None -> assert false

let decompose_exact ?(options = default_options) ?(threshold = default_threshold)
    gate_type ~target =
  exact_of_curve ~threshold gate_type (fd_curve ~options gate_type ~target)

(* Approximate, hardware-aware decomposition: maximize F_d(i) * fh(i)
   over layer counts (Eq 2).  [fh layers] is the hardware fidelity of a
   template with that many two-qubit gates. *)
let approx_of_curve ~fh gate_type curve =
  assert (Array.length curve > 0);
  let best = ref None in
  Array.iter
    (fun (layers, params, fd) ->
      let cand = { gate_type; layers; params; fd; fh = fh layers } in
      match !best with
      | None -> best := Some cand
      | Some b -> if overall_fidelity cand > overall_fidelity b then best := Some cand)
    curve;
  match !best with Some d -> d | None -> assert false

let decompose_approx ?(options = default_options) ~fh gate_type ~target =
  approx_of_curve ~fh gate_type (fd_curve ~options gate_type ~target)

(* Pick the best decomposition (highest overall fidelity F_u) among gate
   types available on an edge — the paper's noise adaptivity across gate
   types. *)
let select_best candidates =
  match candidates with
  | [] -> invalid_arg "Nuop.select_best: no candidates"
  | first :: rest ->
    List.fold_left
      (fun best c -> if overall_fidelity c > overall_fidelity best then c else best)
      first rest

(* Emit the decomposition as circuit instructions on a qubit pair.
   Instruction order matches the template product
   L_i G_i ... G_1 L_0 (L_0 executes first). *)
let to_instrs d ~qubits:(qa, qb) =
  let angles k = Template.gate_angles d.gate_type ~layers:d.layers d.params k in
  let instrs = ref [] in
  let push i = instrs := i :: !instrs in
  let local_layer base =
    let a = d.params.(base) and b = d.params.(base + 1) and l = d.params.(base + 2) in
    let a' = d.params.(base + 3) and b' = d.params.(base + 4) and l' = d.params.(base + 5) in
    push (Qcir.Instr.make (Gates.Gate.u3 a b l) [| qa |]);
    push (Qcir.Instr.make (Gates.Gate.u3 a' b' l') [| qb |])
  in
  local_layer 0;
  for k = 1 to d.layers do
    let gate =
      match d.gate_type with
      | Gates.Gate_type.Fixed { name; unitary } -> Gates.Gate.make name unitary
      | Gates.Gate_type.Fsim_family ->
        let angles = angles k in
        Gates.Gate.fsim angles.(0) angles.(1)
      | Gates.Gate_type.Xy_family ->
        Gates.Gate.xy (angles k).(0)
      | Gates.Gate_type.Cphase_family ->
        Gates.Gate.cphase (angles k).(0)
    in
    push (Qcir.Instr.make gate [| qa; qb |]);
    local_layer (6 * k)
  done;
  List.rev !instrs

let to_circuit d ~n_qubits ~qubits =
  Qcir.Circuit.of_instrs n_qubits (to_instrs d ~qubits)

(* Reconstruct the implemented unitary (for verification/tests). *)
let implemented_unitary d =
  let template = Template.create d.gate_type ~layers:d.layers in
  Mat.copy (Template.evaluate template d.params)
