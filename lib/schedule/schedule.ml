(* Timed executables: ASAP moment schedules over any circuit.

   A schedule packs a circuit's instructions into ASAP moments — every
   instruction lands in the first moment where all its qubits are free —
   and assigns each moment a start time and a duration taken from a
   caller-supplied duration oracle (per instruction index and
   instruction, so per-gate-type calibrated durations plug in directly).
   A moment's duration is the longest instruction it contains; moment
   start times accumulate, so the last moment's end is the executable's
   total wall-clock duration on the device.

   This is the one shared timing representation: the compiler's
   schedule pass, the analytic ESP estimator (Metrics.Esp) and the CLI
   timeline printer all consume the same [t] — a grep-enforced test
   forbids private moment computation elsewhere. *)

type moment = {
  index : int;  (** 0-based moment number *)
  start : float;  (** seconds from circuit start *)
  duration : float;  (** longest instruction in the moment *)
  instrs : (int * Qcir.Instr.t) list;
      (** (instruction index, instruction) in program order *)
}

type t = {
  n_qubits : int;
  moments : moment list;
  total_duration : float;
  busy : float array;  (** per-qubit time spent inside acting moments *)
}

(* The ASAP bucketing: each instruction lands one step after the busiest
   of its qubits (exactly Circuit.depth's recurrence, so with uniform
   durations the moment count equals the circuit depth). *)
let of_circuit ~durations circuit =
  let n = Qcir.Circuit.n_qubits circuit in
  let avail = Array.make n 0 in
  let buckets : (int * Qcir.Instr.t) list array ref = ref (Array.make 8 []) in
  let ensure k =
    if k >= Array.length !buckets then begin
      let bigger = Array.make (2 * (k + 1)) [] in
      Array.blit !buckets 0 bigger 0 (Array.length !buckets);
      buckets := bigger
    end
  in
  let last = ref (-1) in
  let index = ref 0 in
  Qcir.Circuit.iter
    (fun instr ->
      let qs = Qcir.Instr.qubits instr in
      let start = Array.fold_left (fun m q -> max m avail.(q)) 0 qs in
      Array.iter (fun q -> avail.(q) <- start + 1) qs;
      ensure start;
      !buckets.(start) <- (!index, instr) :: !buckets.(start);
      if start > !last then last := start;
      incr index)
    circuit;
  let busy = Array.make n 0.0 in
  let clock = ref 0.0 in
  let moments =
    List.init (!last + 1) (fun k ->
        let instrs = List.rev !buckets.(k) in
        (* fold in program order, starting from 0.0 — the same Float.max
           sequence the pre-refactor simulator used, so moment durations
           are bit-identical *)
        let duration =
          List.fold_left
            (fun acc (i, instr) -> Float.max acc (durations i instr))
            0.0 instrs
        in
        let start = !clock in
        clock := !clock +. duration;
        List.iter
          (fun (_, instr) ->
            Array.iter
              (fun q -> busy.(q) <- busy.(q) +. duration)
              (Qcir.Instr.qubits instr))
          instrs;
        { index = k; start; duration; instrs })
  in
  { n_qubits = n; moments; total_duration = !clock; busy }

let uniform ~duration_1q ~duration_2q _index instr =
  match Qcir.Instr.arity instr with
  | 1 -> duration_1q
  | 2 -> duration_2q
  | _ -> invalid_arg "Schedule.uniform: gates beyond two qubits are not supported"

let n_qubits t = t.n_qubits
let moments t = t.moments
let depth t = List.length t.moments
let total_duration t = t.total_duration

let iter_moments f t = List.iter f t.moments

let busy_time t q =
  if q < 0 || q >= t.n_qubits then invalid_arg "Schedule.busy_time: qubit out of range";
  t.busy.(q)

let idle_time t q = t.total_duration -. busy_time t q

let instruction_count t =
  List.fold_left (fun acc m -> acc + List.length m.instrs) 0 t.moments

(* ---------- rendering (the CLI's `compile --schedule` timeline) ---------- *)

let ns x = 1e9 *. x

let pp_moment ppf m =
  Fmt.pf ppf "@[<h>%4d  %8.1f ns  %6.1f ns  %a@]" m.index (ns m.start) (ns m.duration)
    (Fmt.list ~sep:(Fmt.any "  ") (fun ppf (_, i) -> Qcir.Instr.pp ppf i))
    m.instrs

let pp ppf t =
  Fmt.pf ppf "@[<v>schedule: %d qubits, %d moments, %.1f ns total@," t.n_qubits
    (depth t) (ns t.total_duration);
  Fmt.pf ppf "  mom     start  duration  instructions@,";
  List.iter (fun m -> Fmt.pf ppf "%a@," pp_moment m) t.moments;
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t
