(* The worker-domain engine behind [nuop serve].

   Layout: [submit_line] is the front desk (parse, admission control,
   synchronous refusals); accepted jobs go through the bounded queue to
   worker domains that execute, enforce deadlines and reply.  Stats are
   double-booked — per-server atomics feed the [stats] op, process-wide
   Obs counters feed traces — because several servers can coexist in
   one process (the service tests do exactly that) while the Obs
   registry is global by design. *)

type config = { queue_depth : int; workers : int }

let default_config =
  { queue_depth = 64; workers = Concurrent.Domain_pool.default_domains () }

type job = {
  req : Protocol.request;
  deadline : Deadline.t option;
  reply : string -> unit;
}

type stats = {
  accepted : int Atomic.t;
  completed : int Atomic.t;
  rejected : int Atomic.t;
  timeouts : int Atomic.t;
}

type t = {
  queue : job Queue.t;
  exec : Protocol.request -> (Njson.t, Protocol.err) result;
  stats : stats;
  in_flight : int Atomic.t;
  mutable workers : unit Domain.t array;
  drain_lock : Mutex.t;
  mutable drained : bool;
}

(* Process-wide telemetry; shared across server instances on purpose. *)
let c_accepted = Obs.Counter.create "service.accepted"
let c_completed = Obs.Counter.create "service.completed"
let c_rejected = Obs.Counter.create "service.rejected"
let c_timeout = Obs.Counter.create "service.timeout"

let draining t = Queue.closed t.queue

let stats_json t =
  let hits, misses = Decompose.Cache.stats () in
  Njson.Obj
    [
      ("schema", Njson.String Protocol.schema);
      ("workers", Njson.Int (Array.length t.workers));
      ("queue_depth", Njson.Int (Queue.length t.queue));
      ("queue_capacity", Njson.Int (Queue.capacity t.queue));
      ("in_flight", Njson.Int (Atomic.get t.in_flight));
      ("accepted", Njson.Int (Atomic.get t.stats.accepted));
      ("completed", Njson.Int (Atomic.get t.stats.completed));
      ("rejected", Njson.Int (Atomic.get t.stats.rejected));
      ("timeouts", Njson.Int (Atomic.get t.stats.timeouts));
      ("draining", Njson.Bool (draining t));
      ( "cache",
        Njson.Obj
          [
            ("entries", Njson.Int (Decompose.Cache.size ()));
            ("warm_entries", Njson.Int (Decompose.Cache.warm_count ()));
            ("hits", Njson.Int hits);
            ("misses", Njson.Int misses);
            ("warm_hits", Njson.Int (Decompose.Cache.warm_hits ()));
          ] );
    ]

(* [stats] needs the server's own state, so it short-circuits the
   injected executor — everything else goes through [t.exec].  An
   executor that raises is classified here: [Invalid_argument] is the
   caller's fault, anything else the server's. *)
let dispatch t req =
  match req.Protocol.op with
  | Protocol.Stats -> Ok (stats_json t)
  | _ -> (
    match t.exec req with
    | v -> v
    | exception Invalid_argument m -> Error (Protocol.err Protocol.Bad_request "%s" m)
    | exception exn ->
      Error (Protocol.err Protocol.Internal "%s" (Printexc.to_string exn)))

let timeout_error d =
  Protocol.err Protocol.Timeout "deadline exceeded (%.1f ms past)"
    (-.Deadline.remaining_ms d)

(* One job, start to finish, on a worker domain.  The span opens and
   closes on this same domain (an Obs invariant), and the reply is the
   last thing to happen so the trace timestamps cover the whole job. *)
let process t job =
  Atomic.incr t.in_flight;
  let span = Obs.Span.enter "service.request" in
  let finish outcome line =
    ignore
      (Obs.Span.exit span
         ~attrs:[ ("op", Protocol.op_name job.req.Protocol.op); ("outcome", outcome) ]);
    Atomic.decr t.in_flight;
    job.reply line
  in
  let id = job.req.Protocol.id in
  match job.deadline with
  | Some d when Deadline.expired d ->
    (* expired while queued: never executed, slot reclaimed instantly *)
    Atomic.incr t.stats.timeouts;
    Obs.Counter.incr c_timeout;
    finish "timeout" (Protocol.response_error ~id (timeout_error d))
  | _ -> (
    let result =
      Concurrent.Domain_pool.sequential_scope (fun () -> dispatch t job.req)
    in
    match job.deadline with
    | Some d when Deadline.expired d ->
      (* the work finished but the client's deadline didn't survive it *)
      Atomic.incr t.stats.timeouts;
      Obs.Counter.incr c_timeout;
      finish "timeout" (Protocol.response_error ~id (timeout_error d))
    | _ -> (
      match result with
      | Ok doc ->
        Atomic.incr t.stats.completed;
        Obs.Counter.incr c_completed;
        finish "ok" (Protocol.response_ok ~id doc)
      | Error e ->
        Atomic.incr t.stats.completed;
        Obs.Counter.incr c_completed;
        finish (Protocol.kind_name e.Protocol.kind) (Protocol.response_error ~id e)))

let worker_loop t () =
  let rec loop () =
    match Queue.pop t.queue with
    | None -> ()
    | Some job ->
      process t job;
      loop ()
  in
  loop ()

let create ?(exec = Ops.execute) config =
  let t =
    {
      queue = Queue.create ~capacity:(max 1 config.queue_depth);
      exec;
      stats =
        {
          accepted = Atomic.make 0;
          completed = Atomic.make 0;
          rejected = Atomic.make 0;
          timeouts = Atomic.make 0;
        };
      in_flight = Atomic.make 0;
      workers = [||];
      drain_lock = Mutex.create ();
      drained = false;
    }
  in
  t.workers <- Array.init (max 1 config.workers) (fun _ -> Domain.spawn (worker_loop t));
  t

let reject t ~reply ~id e =
  Atomic.incr t.stats.rejected;
  Obs.Counter.incr c_rejected;
  reply (Protocol.response_error ~id e)

let submit_line t ~reply line =
  match Protocol.parse line with
  | Error (id, e) -> reject t ~reply ~id e
  | Ok req ->
    let id = req.Protocol.id in
    if draining t then
      reject t ~reply ~id
        (Protocol.err Protocol.Draining "server is draining and accepts no new work")
    else begin
      let deadline =
        Option.map (fun ms -> Deadline.after ~ms) req.Protocol.deadline_ms
      in
      let job = { req; deadline; reply } in
      if Queue.try_push t.queue job then begin
        Atomic.incr t.stats.accepted;
        Obs.Counter.incr c_accepted
      end
      else
        reject t ~reply ~id
          (Protocol.err Protocol.Overloaded "job queue full (%d pending)"
             (Queue.capacity t.queue))
    end

let drain t =
  Queue.close t.queue;
  Mutex.lock t.drain_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drain_lock)
    (fun () ->
      if not t.drained then begin
        t.drained <- true;
        Array.iter Domain.join t.workers;
        Obs.Sink.flush ()
      end)

(* ---------- stdio transport ---------- *)

let locking_reply oc =
  let lock = Mutex.create () in
  fun line ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        try
          output_string oc line;
          output_char oc '\n';
          Stdlib.flush oc
        with Sys_error _ -> ())

let serve_channels t ic oc =
  let reply = locking_reply oc in
  let rec loop () =
    match input_line ic with
    | line ->
      if String.trim line <> "" then submit_line t ~reply line;
      loop ()
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
  in
  loop ();
  drain t;
  try Stdlib.flush oc with Sys_error _ -> ()

(* ---------- Unix-domain socket transport ---------- *)

(* Replies can arrive from worker domains after this connection's reader
   saw EOF, so the closer waits until every submitted request has been
   answered before closing the descriptor — an accepted request is never
   left without its response line. *)
let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let lock = Mutex.create () in
  let all_replied = Condition.create () in
  let pending = ref 0 in
  let reply line =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        (try
           output_string oc line;
           output_char oc '\n';
           Stdlib.flush oc
         with Sys_error _ -> ());
        decr pending;
        Condition.broadcast all_replied)
  in
  let rec loop () =
    match input_line ic with
    | line ->
      if String.trim line <> "" then begin
        Mutex.lock lock;
        incr pending;
        Mutex.unlock lock;
        submit_line t ~reply line
      end;
      loop ()
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
  in
  loop ();
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait all_replied lock
  done;
  Mutex.unlock lock;
  (try Stdlib.flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve_socket t path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  let stop = Atomic.make false in
  (* Closing the listener from the signal handler pops the blocking
     [accept] with an error — the cue to stop accepting and drain. *)
  let request_stop _ =
    if not (Atomic.exchange stop true) then (
      try Unix.close listener with Unix.Unix_error _ -> ())
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let rec accept_loop () =
    if not (Atomic.get stop) then
      match Unix.accept listener with
      | fd, _ ->
        ignore (Thread.create (handle_connection t) fd);
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  accept_loop ();
  if not (Atomic.exchange stop true) then (
    try Unix.close listener with Unix.Unix_error _ -> ());
  drain t;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int
