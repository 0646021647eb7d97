(* Structured telemetry: the one place the toolchain measures itself.

   Before this subsystem existed, instrumentation had grown ad hoc in
   five layers — the pass manager timed passes with [Sys.time] (process
   CPU time misreported as wall time), the bench harness hand-rolled
   [Unix.gettimeofday] spans, the decomposition cache kept private
   atomic counters, and three modules reimplemented warn-once stderr
   logging.  Everything now routes through here:

   - {!Clock} is the single wall-clock source (and the UTC stamp
     formatters, so artifact names never depend on the local timezone);
   - {!Span} is a hierarchical timed span: enter/exit pairs carrying
     string attributes, nested per domain, cheap when disabled;
   - {!Counter} is a domain-safe atomic in a named registry;
   - {!Log} is leveled stderr logging with built-in warn-once and a
     [NUOP_LOG_LEVEL] filter;
   - {!Sink} is the pluggable event consumer: null (the default — the
     hot paths do nothing beyond one atomic load), human-readable text,
     or the {!Trace} JSONL writer (schema nuop-trace/1, built on
     {!Njson}) activated by [--trace FILE] / [NUOP_TRACE].

   A repo-wide grep test bans [Unix.gettimeofday], [Sys.time],
   [Unix.localtime] and [Printf.eprintf] outside this library, and the
   CI alias checks that tracing a compile never changes its output. *)

(* ---------- the wall clock ---------- *)

module Clock = struct
  let now () = Unix.gettimeofday ()

  let elapsed since = now () -. since

  (* Monotonic-ized wall clock for deadline arithmetic: readings never
     decrease across calls, process-wide, even if the system clock steps
     backwards (NTP).  A CAS loop latches the maximum observed reading;
     domains racing here only ever push the latch forward. *)
  let monotonic_latch = Atomic.make neg_infinity

  let rec monotonic () =
    let wall = now () in
    let seen = Atomic.get monotonic_latch in
    let t = if wall > seen then wall else seen in
    if wall > seen && not (Atomic.compare_and_set monotonic_latch seen wall) then
      monotonic ()
    else t

  (* UTC stamps: artifact names (BENCH_<date>.json) must not change with
     the machine's timezone, so these go through [Unix.gmtime], never
     [Unix.localtime]. *)
  let utc_date t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday

  let utc_timestamp t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
end

(* ---------- event vocabulary ---------- *)

type level = Error | Warn | Info | Debug

let level_rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

type event =
  | Span_start of {
      id : int;
      parent : int option;
      domain : int;
      name : string;
      t : float;
    }
  | Span_end of {
      id : int;
      domain : int;
      name : string;
      t : float;
      elapsed : float;
      attrs : (string * string) list;
    }
  | Counter_value of { name : string; value : int; t : float }
  | Message of { level : level; text : string; t : float }

(* ---------- sinks ---------- *)

module Sink = struct
  type t = { emit : event -> unit; flush : unit -> unit }

  (* The null sink is represented by [None]: the hot paths pay exactly
     one atomic load to discover nothing is listening. *)
  let current : t option Atomic.t = Atomic.make None

  let active () = Atomic.get current <> None
  let install s = Atomic.set current (Some s)
  let uninstall () = Atomic.set current None

  let emit ev = match Atomic.get current with None -> () | Some s -> s.emit ev
  let flush () = match Atomic.get current with None -> () | Some s -> s.flush ()

  (* Serialize whole lines: sinks are shared across the Domain pool, and
     two domains' events must never shear mid-line. *)
  let locking_line_writer oc =
    let lock = Mutex.create () in
    fun line ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          output_string oc line;
          output_char oc '\n')

  let render_attrs attrs =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) attrs)

  (* Human-readable sink (one line per event), for NUOP_TRACE=stderr. *)
  let text oc =
    let write = locking_line_writer oc in
    let render = function
      | Span_start { id; parent; domain; name; _ } ->
        Printf.sprintf "[obs] > %s #%d%s dom%d" name id
          (match parent with Some p -> Printf.sprintf " <#%d" p | None -> "")
          domain
      | Span_end { id; name; elapsed; attrs; _ } ->
        Printf.sprintf "[obs] < %s #%d %.3f ms%s" name id (1000.0 *. elapsed)
          (render_attrs attrs)
      | Counter_value { name; value; _ } -> Printf.sprintf "[obs] # %s = %d" name value
      | Message { level; text; _ } ->
        Printf.sprintf "[obs] %s %s" (level_name level) text
    in
    {
      emit =
        (fun ev ->
          write (render ev);
          Stdlib.flush oc);
      flush = (fun () -> Stdlib.flush oc);
    }
end

(* ---------- counters ---------- *)

(* A named registry so a trace can snapshot every counter at close time.
   The cells are atomics — increments from Domain-pool workers are exact
   without any lock — while the registry itself is mutex-guarded
   (creation is rare). *)

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let lock = Mutex.create ()

  (* Idempotent by name: the second [create "x"] returns the first's
     cell, so module-initialization order never splits a metric. *)
  let create name =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { name; cell = Atomic.make 0 } in
          Hashtbl.add registry name c;
          c)

  let name c = c.name
  let incr c = Atomic.incr c.cell
  let add c n = ignore (Atomic.fetch_and_add c.cell n)
  let get c = Atomic.get c.cell
  let reset c = Atomic.set c.cell 0

  let all () =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> Hashtbl.fold (fun _ c acc -> (c.name, Atomic.get c.cell) :: acc) registry [])
    |> List.sort compare
end

(* ---------- leveled logging with warn-once ---------- *)

module Log = struct
  let env_var = "NUOP_LOG_LEVEL"

  (* Messages print verbatim (callers keep their own "nuop: " prefixes),
     so moving a warning onto Obs.Log never changes its bytes.  Tests
     may swap the writer to capture output. *)
  let default_output line = Printf.eprintf "%s\n%!" line
  let out = ref default_output
  let set_output f = out := f
  let reset_output () = out := default_output

  let invalid_env = ref None

  let initial_level =
    match Sys.getenv_opt env_var with
    | None -> Warn
    | Some v -> (
      match level_of_string v with
      | Some l -> l
      | None ->
        invalid_env := Some v;
        Warn)

  let current = Atomic.make initial_level
  let set_level l = Atomic.set current l
  let level () = Atomic.get current
  let enabled l = level_rank l <= level_rank (Atomic.get current)

  (* A malformed NUOP_LOG_LEVEL reports itself once, on the first
     message of the process, then falls back to the default (warn). *)
  let env_checked = Atomic.make false

  let check_env () =
    if not (Atomic.exchange env_checked true) then
      match !invalid_env with
      | Some v ->
        !out
          (Printf.sprintf "nuop: ignoring invalid %s=%S (expected error|warn|info|debug)"
             env_var v)
      | None -> ()

  let emit_message lvl msg =
    check_env ();
    if enabled lvl then begin
      !out msg;
      Sink.emit (Message { level = lvl; text = msg; t = Clock.now () })
    end

  let log lvl fmt = Printf.ksprintf (emit_message lvl) fmt
  let error fmt = log Error fmt
  let warn fmt = log Warn fmt
  let info fmt = log Info fmt
  let debug fmt = log Debug fmt

  (* warn-once: at most one message per key per process, whatever domain
     hits the condition first. *)
  let once : (string, unit) Hashtbl.t = Hashtbl.create 8
  let once_lock = Mutex.create ()

  let first_time key =
    Mutex.lock once_lock;
    let fresh = not (Hashtbl.mem once key) in
    if fresh then Hashtbl.add once key ();
    Mutex.unlock once_lock;
    fresh

  let warn_once ~key fmt =
    Printf.ksprintf (fun msg -> if first_time key then emit_message Warn msg) fmt

  (* test hook: forget every warn-once key *)
  let reset_once () =
    Mutex.lock once_lock;
    Hashtbl.reset once;
    Mutex.unlock once_lock
end

(* ---------- hierarchical timed spans ---------- *)

module Span = struct
  type t = { id : int; name : string; t0 : float; traced : bool }

  let next_id = Atomic.make 1

  (* Per-domain stack of open span ids: nesting is a property of one
     domain's call stack, so spans running on different pool workers
     never corrupt each other's parents. *)
  let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

  let current () =
    match Domain.DLS.get stack_key with [] -> None | id :: _ -> Some id

  let domain_id () = (Domain.self () :> int)

  (* With the null sink, [enter] records only the start time — no id is
     allocated, no event emitted, no DLS touched. *)
  let enter ?parent name =
    let t0 = Clock.now () in
    if not (Sink.active ()) then { id = 0; name; t0; traced = false }
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = match parent with Some _ as p -> p | None -> current () in
      Domain.DLS.set stack_key (id :: Domain.DLS.get stack_key);
      Sink.emit (Span_start { id; parent; domain = domain_id (); name; t = t0 });
      { id; name; t0; traced = true }
    end

  (* Wall seconds since [enter], without closing the span — the pass
     manager uses this to time exactly the pass body while attaching
     attributes computed afterwards to the span's end event. *)
  let elapsed span = Clock.now () -. span.t0

  let exit ?(attrs = []) span =
    let t = Clock.now () in
    let e = t -. span.t0 in
    if span.traced then begin
      (match Domain.DLS.get stack_key with
      | top :: rest when top = span.id -> Domain.DLS.set stack_key rest
      | stack ->
        (* misnested exit: drop the id wherever it is so the stack heals *)
        Domain.DLS.set stack_key (List.filter (fun i -> i <> span.id) stack));
      Sink.emit
        (Span_end
           { id = span.id; domain = domain_id (); name = span.name; t; elapsed = e; attrs })
    end;
    e

  let with_ ?parent ?(attrs = []) name f =
    let s = enter ?parent name in
    Fun.protect ~finally:(fun () -> ignore (exit ~attrs s)) f

  (* Run [f] under a span and return its result with the elapsed wall
     seconds — the drop-in replacement for hand-rolled gettimeofday
     deltas. *)
  let timed ?parent ?(attrs = []) name f =
    let s = enter ?parent name in
    match f () with
    | v -> (v, exit ~attrs s)
    | exception exn ->
      ignore (exit ~attrs s);
      raise exn
end

(* ---------- JSONL traces (schema nuop-trace/1) ---------- *)

module Trace = struct
  let schema = "nuop-trace/1"
  let env_var = "NUOP_TRACE"

  let attrs_json attrs = Njson.Obj (List.map (fun (k, v) -> (k, Njson.String v)) attrs)

  let event_json = function
    | Span_start { id; parent; domain; name; t } ->
      Njson.Obj
        [
          ("ev", Njson.String "start");
          ("id", Njson.Int id);
          ("parent", match parent with Some p -> Njson.Int p | None -> Njson.Null);
          ("dom", Njson.Int domain);
          ("name", Njson.String name);
          ("t", Njson.Float t);
        ]
    | Span_end { id; domain; name; t; elapsed; attrs } ->
      Njson.Obj
        ([
           ("ev", Njson.String "end");
           ("id", Njson.Int id);
           ("dom", Njson.Int domain);
           ("name", Njson.String name);
           ("t", Njson.Float t);
           ("dur", Njson.Float elapsed);
         ]
        @ if attrs = [] then [] else [ ("attrs", attrs_json attrs) ])
    | Counter_value { name; value; t } ->
      Njson.Obj
        [
          ("ev", Njson.String "count");
          ("name", Njson.String name);
          ("value", Njson.Int value);
          ("t", Njson.Float t);
        ]
    | Message { level; text; t } ->
      Njson.Obj
        [
          ("ev", Njson.String "log");
          ("level", Njson.String (level_name level));
          ("msg", Njson.String text);
          ("t", Njson.Float t);
        ]

  (* One JSON object per line; the first line is a meta record naming
     the schema so [check] can reject files from the wrong layer. *)
  let jsonl oc =
    let write = Sink.locking_line_writer oc in
    let line json = write (Njson.to_string ~indent:0 json) in
    line
      (Njson.Obj
         [
           ("ev", Njson.String "meta");
           ("schema", Njson.String schema);
           ("t", Njson.Float (Clock.now ()));
         ]);
    { Sink.emit = (fun ev -> line (event_json ev)); flush = (fun () -> Stdlib.flush oc) }

  (* A closing trace snapshots every registered counter, so the file
     records final totals even though increments themselves are never
     individually emitted (they would dominate the file). *)
  let snapshot_metrics () =
    let t = Clock.now () in
    List.iter
      (fun (name, value) -> Sink.emit (Counter_value { name; value; t }))
      (Counter.all ())

  type session = { oc : out_channel; mutable open_ : bool }

  let active_session : session option ref = ref None

  let finish () =
    match !active_session with
    | None -> ()
    | Some s ->
      if s.open_ then begin
        s.open_ <- false;
        snapshot_metrics ();
        Sink.flush ();
        Sink.uninstall ();
        close_out_noerr s.oc
      end;
      active_session := None

  let start_file path =
    finish ();
    let oc = open_out path in
    Sink.install (jsonl oc);
    active_session := Some { oc; open_ = true }

  (* Scoped tracing (tests, library callers): the session closes — and
     the metrics snapshot lands — when [f] returns or raises. *)
  let with_file path f =
    start_file path;
    Fun.protect ~finally:finish f

  (* Process-lifetime tracing (the CLI's --trace): closed at exit. *)
  let exit_hook_installed = ref false

  let enable_file path =
    start_file path;
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit finish
    end

  let enable_stderr () = Sink.install (Sink.text stderr)

  let init_from_env () =
    match Sys.getenv_opt env_var with
    | None -> ()
    | Some v when String.trim v = "" ->
      Log.warn_once ~key:"obs.trace.env"
        "nuop: ignoring empty %s (expected a trace file path or 'stderr')" env_var
    | Some v when String.trim v = "stderr" -> enable_stderr ()
    | Some v -> enable_file (String.trim v)

  (* ----- validation (nuop trace check) ----- *)

  type check_stats = {
    events : int;
    spans : int;  (** completed spans *)
    max_depth : int;  (** deepest nesting across all domains *)
    counters : int;
    messages : int;
  }

  exception Check_failed of string

  let check_string s =
    let fail ~line fmt =
      Printf.ksprintf (fun m -> raise (Check_failed (Printf.sprintf "line %d: %s" line m))) fmt
    in
    let lines =
      String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
    in
    let member_exn ~line key kind extract json =
      match Option.bind (Njson.member key json) extract with
      | Some v -> v
      | None -> fail ~line "missing or non-%s field %S" kind key
    in
    let to_int = function Njson.Int i -> Some i | _ -> None in
    let str ~line key json = member_exn ~line key "string" Njson.to_string_value json in
    let int ~line key json = member_exn ~line key "integer" to_int json in
    let num ~line key json = member_exn ~line key "numeric" Njson.to_float_value json in
    (* open spans: per-domain stacks (nesting is a per-domain property;
       domains legitimately interleave in the file) *)
    let stacks : (int, (int * string) list) Hashtbl.t = Hashtbl.create 4 in
    let open_ids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let seen_ids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let spans = ref 0 and max_depth = ref 0 in
    let counters = ref 0 and messages = ref 0 in
    try
      if lines = [] then raise (Check_failed "empty trace (no meta record)");
      List.iteri
        (fun i raw ->
          let line = i + 1 in
          let json =
            match Njson.of_string_result raw with
            | Ok j -> j
            | Error m -> fail ~line "JSON parse error (%s)" m
          in
          let ev = str ~line "ev" json in
          if line = 1 then begin
            if ev <> "meta" then fail ~line "expected a meta record, got %S" ev;
            let s = str ~line "schema" json in
            if s <> schema then fail ~line "schema %S (expected %S)" s schema
          end
          else begin
            ignore (num ~line "t" json);
            match ev with
            | "meta" -> fail ~line "duplicate meta record"
            | "start" ->
              let id = int ~line "id" json in
              let dom = int ~line "dom" json in
              let name = str ~line "name" json in
              if id <= 0 then fail ~line "span id %d is not positive" id;
              if Hashtbl.mem seen_ids id then fail ~line "duplicate span id %d" id;
              (match Njson.member "parent" json with
              | Some Njson.Null | None -> ()
              | Some (Njson.Int p) ->
                if not (Hashtbl.mem open_ids p) then
                  fail ~line "span %d names parent %d, which is not open" id p
              | Some _ -> fail ~line "non-integer parent on span %d" id);
              Hashtbl.replace seen_ids id ();
              Hashtbl.replace open_ids id ();
              let stack = Option.value ~default:[] (Hashtbl.find_opt stacks dom) in
              let stack = (id, name) :: stack in
              Hashtbl.replace stacks dom stack;
              max_depth := max !max_depth (List.length stack)
            | "end" ->
              let id = int ~line "id" json in
              let dom = int ~line "dom" json in
              let name = str ~line "name" json in
              if num ~line "dur" json < 0.0 then fail ~line "negative duration on span %d" id;
              (match Hashtbl.find_opt stacks dom with
              | Some ((top, top_name) :: rest) ->
                if top <> id then
                  fail ~line
                    "span end #%d does not match the innermost open span #%d (%s) of domain %d"
                    id top top_name dom;
                if top_name <> name then
                  fail ~line "span #%d ends as %S but started as %S" id name top_name;
                Hashtbl.replace stacks dom rest;
                Hashtbl.remove open_ids id;
                incr spans
              | Some [] | None ->
                fail ~line "span end #%d with no open span on domain %d" id dom)
            | "count" ->
              ignore (str ~line "name" json);
              ignore (int ~line "value" json);
              incr counters
            | "log" ->
              (match level_of_string (str ~line "level" json) with
              | Some _ -> ()
              | None -> fail ~line "unknown log level");
              ignore (str ~line "msg" json);
              incr messages
            | other -> fail ~line "unknown event %S" other
          end)
        lines;
      Hashtbl.iter
        (fun dom stack ->
          match stack with
          | (id, name) :: _ ->
            raise
              (Check_failed
                 (Printf.sprintf "span #%d (%s) on domain %d never ended" id name dom))
          | [] -> ())
        stacks;
      Ok
        {
          events = List.length lines;
          spans = !spans;
          max_depth = !max_depth;
          counters = !counters;
          messages = !messages;
        }
    with Check_failed reason -> Error reason

  let check_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> check_string s
    | exception Sys_error m -> Error m
end
