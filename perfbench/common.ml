(* Pieces every workload shares: the clock, failure reporting, the peak
   memory reading, the reference loop and the measured run loop. *)

let now = Obs.Clock.now

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** run artifacts: snapshots, fingerprints, traces *)
}

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* Failed items are reported, not raised: the run still prints its
   result line with [correct = false]. *)
let failures : string list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      failures := m :: !failures;
      prerr_endline ("perfbench: FAIL " ^ m))
    fmt

let log fmt = Printf.ksprintf prerr_endline fmt

(* Process peak resident set (VmHWM), MiB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> Some l
          | Some _ -> find ()
        in
        find ())
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "VmHWM missing from /proc/self/status"

(* The benchmark-owned reference loop: a fixed amount of 4x4 complex
   multiply-accumulate work that calls no repo code, the host's speed
   gauge.  Its time moves with the shared host's phases (about 0.4 ms
   in a fast one, up to twice that in a slow one) but with no change
   of the program, so the workloads time it just before and just after
   every item (serve: every pass) and express the item's time at the
   nominal speed below ([normalize]).  Every sample also goes to the
   run record. *)
let reference_samples : float list ref = ref []

let reference_loop =
  let a = Array.init 32 (fun i -> 0.01 *. float_of_int i)
  and b = Array.init 32 (fun i -> 1.0 -. (0.01 *. float_of_int i))
  and c = Array.make 32 0.0 in
  fun () ->
    let t0 = now () in
    for _ = 1 to 2000 do
      for i = 0 to 3 do
        for j = 0 to 3 do
          let re = ref 0.0 and im = ref 0.0 in
          for k = 0 to 3 do
            let ar = a.(2 * ((4 * i) + k)) and ai = a.((2 * ((4 * i) + k)) + 1) in
            let br = b.(2 * ((4 * k) + j)) and bi = b.((2 * ((4 * k) + j)) + 1) in
            re := !re +. (ar *. br) -. (ai *. bi);
            im := !im +. (ar *. bi) +. (ai *. br)
          done;
          c.(2 * ((4 * i) + j)) <- 0.5 *. !re;
          c.((2 * ((4 * i) + j)) + 1) <- 0.5 *. !im
        done
      done
    done;
    let t = now () -. t0 in
    reference_samples := t :: !reference_samples;
    t

(* The reference loop's time in a fast phase of the 2-vCPU Xeon host
   the benchmark was tuned on; normalized times read as wall times at
   that speed. *)
let reference_nominal_s = 4e-4

(* [t] seconds of work, timed between reference-loop samples [before]
   and [after], expressed at the nominal host speed. *)
let normalize t ~before ~after = t *. reference_nominal_s /. (0.5 *. (before +. after))

(* Runs [f i x] on each item [x] of [items], with the reference loop
   timed before the first item and after each one; [f] returns its
   result and the item's own time.  Returns the results and each item's
   normalized time. *)
let bracketed f items =
  let norm = Array.make (Array.length items) 0.0 in
  let before = ref (reference_loop ()) in
  let rs =
    Array.mapi
      (fun i x ->
        let r, t = f i x in
        let after = reference_loop () in
        norm.(i) <- normalize t ~before:!before ~after;
        before := after;
        r)
      items
  in
  (rs, norm)

(* [f ()]'s wall time *)
let timed f =
  let t0 = now () in
  f ();
  now () -. t0

type loop = {
  setup_s : float array;  (** every set-up, normalized *)
  reference_s : float array;  (** every reference-loop sample *)
  passes : int;
  wall_s : float;  (** timed wall time: passes only, with their reference samples *)
}

(* The measured phase: ten rounds, each taking an equal slice of
   [seconds] and running passes until its slice ends (at least one).
   A set-up precedes a round's first pass and any later pass that
   starts [setup_every] seconds or more after the last set-up (0: every
   pass; infinity: once a round).  [setup ()] returns the seconds it
   counts as set-up ([timed] counts all of it).  Every set-up runs
   between two reference-loop samples and is normalized, so set-up
   recurs across the whole run, between the passes, and its figure does
   not move with the host's phases.  Passes are short (well under a
   slice), so [seconds] sets the length of the run.  [pass k] runs pass
   [k]; the caller keeps its per-item figures. *)
let run_loop ?(setup_every = 0.0) ~seconds ~setup ~pass () =
  let rounds = 10 in
  reference_samples := [];
  let t_start = now () in
  let setups = ref [] and wall = ref 0.0 and k = ref 0 in
  let last_setup = ref None in
  for r = 1 to rounds do
    let slice_end = t_start +. (seconds *. float_of_int r /. float_of_int rounds) in
    let rec passes first =
      if first || now () < slice_end then begin
        let due =
          first
          || match !last_setup with None -> true | Some t -> now () -. t >= setup_every
        in
        if due then begin
          let before = reference_loop () in
          let t = setup () in
          let after = reference_loop () in
          setups := normalize t ~before ~after :: !setups;
          last_setup := Some (now ())
        end;
        let t0 = now () in
        pass !k;
        wall := !wall +. (now () -. t0);
        incr k;
        passes false
      end
    in
    passes true
  done;
  {
    setup_s = Array.of_list (List.rev !setups);
    reference_s = Array.of_list (List.rev !reference_samples);
    passes = !k;
    wall_s = !wall;
  }

type outcome = {
  attempted : int;  (** item executions in the timed passes *)
  metrics : metric list;  (** the end-to-end metrics *)
  fingerprint : string;  (** every exact count of the run, for the determinism guard *)
  loop : loop;
  record : (string * string) list;  (** workload-specific run-record fields *)
  raw : (string * float array array) list;  (** per-pass timings, for the run record *)
}

type run = {
  outcome : outcome;
  per_layer : unit -> metric list;  (** traced run only, after the passes *)
}

(* The determinism guard within one process: every pass must report the
   same exact counts. *)
let same_every_pass what fingerprints =
  match fingerprints with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i fp ->
        if fp <> first then fail "%s: pass %d's exact counts differ from pass 0's" what (i + 1))
      rest

let ms s = 1e3 *. s
