(* The traced run's in-memory sink.

   Events stay in memory while the workload runs (one mutex-guarded
   list, shared by the server's worker domains) and are written out as
   one nuop-trace/1 file at the end, which Obs.Trace.check_file then
   validates.  Benchmark spans ("bench.*") wrap each call the benchmark
   makes into a layer; the program's own spans nest beneath them. *)

let lock = Mutex.create ()
let events : Obs.event list ref = ref []

let sink =
  {
    Obs.Sink.emit = (fun ev -> Mutex.protect lock (fun () -> events := ev :: !events));
    flush = ignore;
  }

let on () = Obs.Sink.install sink
let off () = Obs.Sink.uninstall ()

type span_rec = {
  name : string;
  dom : int;
  parent : int option;
  t0 : float;
  t1 : float;
}

(* Completed spans by id. *)
let spans () =
  let starts = Hashtbl.create 4096 and done_ = Hashtbl.create 4096 in
  List.iter
    (function
      | Obs.Span_start { id; parent; name; t; domain } ->
        Hashtbl.replace starts id (name, parent, t, domain)
      | Obs.Span_end { id; t; _ } -> (
        match Hashtbl.find_opt starts id with
        | Some (name, parent, t0, dom) ->
          Hashtbl.replace done_ id { name; dom; parent; t0; t1 = t }
        | None -> ())
      | _ -> ())
    (List.rev !events);
  done_

type row = { count : int; total : float; self : float }

let empty = { count = 0; total = 0.0; self = 0.0 }

(* Per span name: count, total and self time (seconds).  Self time is
   the span's length minus the union of its children's intervals. *)
let table spans =
  let children = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun _ s ->
      match s.parent with
      | Some p ->
        let siblings = Option.value ~default:[] (Hashtbl.find_opt children p) in
        Hashtbl.replace children p ((s.t0, s.t1) :: siblings)
      | None -> ())
    spans;
  let rows = Hashtbl.create 32 in
  Hashtbl.iter
    (fun id s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children id) in
      let self = Stats.self_time ~start:s.t0 ~stop:s.t1 kids in
      let r = Option.value ~default:empty (Hashtbl.find_opt rows s.name) in
      Hashtbl.replace rows s.name
        { count = r.count + 1; total = r.total +. (s.t1 -. s.t0); self = r.self +. self })
    spans;
  List.sort
    (fun (_, a) (_, b) -> Float.compare b.self a.self)
    (List.of_seq (Hashtbl.to_seq rows))

let row_of tbl name = Option.value ~default:empty (List.assoc_opt name tbl)

(* Share of the busy time that the spans called [name] account for:
   their union per domain, summed, over [busy] seconds. *)
let coverage ~name ~busy =
  let by_dom = Hashtbl.create 4 in
  Hashtbl.iter
    (fun _ s ->
      if s.name = name then
        Hashtbl.replace by_dom s.dom
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt by_dom s.dom)))
    (spans ());
  let covered =
    Hashtbl.fold
      (fun _ ivs acc -> acc +. Stats.union_length ~clip:(neg_infinity, infinity) ivs)
      by_dom 0.0
  in
  if busy <= 0.0 then 0.0 else covered /. busy

let print_table oc tbl =
  Printf.fprintf oc "%-34s %8s %12s %12s\n" "span" "count" "total (ms)" "self (ms)";
  List.iter
    (fun (name, r) ->
      Printf.fprintf oc "%-34s %8d %12.2f %12.2f\n" name r.count (1e3 *. r.total)
        (1e3 *. r.self))
    tbl

(* Snapshot the counters into the trace, write it as nuop-trace/1 and
   validate it; returns the validator's verdict. *)
let write path =
  on ();
  Obs.Trace.snapshot_metrics ();
  off ();
  Out_channel.with_open_bin path (fun oc ->
      let file = Obs.Trace.jsonl oc in
      List.iter file.Obs.Sink.emit (List.rev !events);
      file.Obs.Sink.flush ());
  Obs.Trace.check_file path
