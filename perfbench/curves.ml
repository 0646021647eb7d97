(* The curve snapshot and cache probes shared by the warm workloads
   (study, serve). *)

module C = Common

let exe_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))

(* A snapshot is reused across runs only when it was written by this very
   executable for the same workload and seed. *)
let snapshot_path (args : C.args) =
  Filename.concat args.C.out_dir
    (Printf.sprintf "curves-%s-%d-%s.json" args.C.workload args.C.seed (Lazy.force exe_digest))

(* Preparation: run [items] once at pool 1 on whatever the snapshot
   holds (nothing when it is missing or unreadable), save the curves if
   any had to be computed, then clear the cache.  Returns [items]'s
   result and the number of curves computed cold. *)
let prepare args items =
  let path = snapshot_path args in
  Decompose.Cache.clear ();
  if Sys.file_exists path then ignore (Decompose.Cache.load_from_file path);
  let r = items () in
  let _, misses = Decompose.Cache.stats () in
  if misses > 0 then ignore (Decompose.Cache.save_to_file path);
  Decompose.Cache.clear ();
  (r, misses)

(* The set-up half that restarts the cache: a warm restart from the
   snapshot, as with NUOP_CACHE_FILE.  Returns (entries, seconds). *)
let load args =
  Decompose.Cache.clear ();
  let t0 = C.now () in
  let entries = Decompose.Cache.load_from_file (snapshot_path args) in
  (entries, C.now () -. t0)

(* The (gate type, target) lookups a compile makes: every 2Q unitary of
   the placed and routed circuit against every type of the set — the
   keys the lowering pass asks the cache for. *)
let routed_keys ~options ~device ~isa ?placement circuit =
  let ctx = Compiler.Pass.Context.create ~options ~device ~isa ?placement circuit in
  Compiler.Pass.run Compiler.Pass.placement ctx;
  Compiler.Pass.run (Compiler.Pass.route ()) ctx;
  List.concat_map
    (fun instr ->
      if Qcir.Instr.is_two_qubit instr then
        let target = Gates.Gate.matrix (Qcir.Instr.gate instr) in
        List.map (fun ty -> (ty, target)) (Isa.Set.gate_types isa)
      else [])
    (Qcir.Circuit.instrs ctx.Compiler.Pass.Context.circuit)

(* Microseconds per resident Cache.fd_curve hit over [keys], with
   [domains] domains sweeping them at once; the fastest of 5 sweeps. *)
let lookup_us ~nuop ~domains keys =
  let keys = Array.of_list keys in
  let sweep () =
    Array.iter
      (fun (ty, target) -> ignore (Decompose.Cache.fd_curve ~options:nuop ty ~target))
      keys
  in
  let run () =
    let t0 = C.now () in
    let others = List.init (domains - 1) (fun _ -> Domain.spawn sweep) in
    sweep ();
    List.iter Domain.join others;
    1e6 *. (C.now () -. t0) /. float_of_int (Array.length keys)
  in
  Array.fold_left Float.min infinity (Array.init 5 (fun _ -> run ()))
