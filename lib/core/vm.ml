open Vat_desim
open Vat_guest
open Vat_tiled
module Tr = Vat_trace.Trace
module Snap = Vat_snapshot.Snapshot

type result = {
  outcome : Exec.outcome;
  cycles : int;
  guest_insns : int;
  output : string;
  digest : int;
  stats : Stats.t;
}

(* What a run cannot survive without rolling back: a plan event that kills
   a critical tile (exec, manager, MMU, syscall), or the loss of the only
   copy of a dirty L2D line, detected at the bank at cycle [at]. *)
type terminal = Failed of Fault.event | Parity_loss of { at : int; bank : int }

type instance = {
  i_q : Event_queue.t;
  i_stats : Stats.t;
  i_cfg : Config.t;
  i_trace : Tr.t;
  i_layout : Layout.t;
  i_manager : Manager.t;
  i_exec : Exec.t;
  i_memsys : Memsys.t;
  (* Set by [run] when it checkpoints: a terminal is then recorded here for
     the rollback loop instead of ending the guest. *)
  mutable i_rollback : bool;
  mutable i_terminal : terminal option;
}

let terminal_message = function
  | Parity_loss { bank; _ } ->
    Printf.sprintf "uncorrectable L2D parity error (bank %d)" bank
  | Failed e ->
    Printf.sprintf "unrecoverable fault: %s tile failed"
      (match e.site.role with
       | Fault.Mmu -> "MMU"
       | Fault.Exec -> "execution"
       | role -> Fault.role_to_string role)

let terminate t term =
  if t.i_rollback then begin
    if Option.is_none t.i_terminal then t.i_terminal <- Some term
  end
  else begin
    Stats.incr t.i_stats
      (match term with
       | Failed _ -> "fault.unrecoverable"
       | Parity_loss _ -> "corrupt.uncorrectable_aborts");
    Exec.abort t.i_exec (terminal_message term)
  end

let create ?input ?memo ?(trace = Tr.disabled) q stats cfg prog =
  let layout = Layout.create (Grid.create ()) in
  let manager =
    Manager.create ?memo ~trace q stats cfg layout
      ~fetch:(Mem.read_u8 prog.Program.mem)
      ~page_gen:(fun ~page -> Mem.page_generation prog.Program.mem ~page)
  in
  let memsys =
    Memsys.create ~trace q stats cfg layout ~page_table:prog.Program.page_table
  in
  let exec =
    Exec.create q stats cfg layout prog ~manager ~memsys ?input ~trace ()
  in
  let t =
    { i_q = q; i_stats = stats; i_cfg = cfg; i_trace = trace;
      i_layout = layout; i_manager = manager; i_exec = exec;
      i_memsys = memsys; i_rollback = false; i_terminal = None }
  in
  (* An uncorrectable parity error (corrupt dirty L2D line: the only copy
     of the data is gone) must end the run as a clean fault or a rollback,
     never return a silent wrong value. *)
  Memsys.set_fatal_handler memsys (fun ~bank ->
      terminate t (Parity_loss { at = Event_queue.now q; bank }));
  t

let start t ~fuel ~on_finish = Exec.start t.i_exec ~fuel ~on_finish
let manager_of t = t.i_manager
let exec_of t = t.i_exec

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* [classes] filters each site's candidate kinds; the default (the three
   legacy classes) provably reproduces the pre-corruption menu site for
   site, so existing plans and the committed degradation curves replay
   byte-identically. A site whose filtered kind list is empty is dropped. *)
let fault_menu ?(recoverable_only = true) ?(classes = Fault.legacy_classes) cfg =
  let menu = ref [] in
  let add role index kinds =
    let kinds =
      List.filter (fun k -> List.mem (Fault.class_of_kind k) classes) kinds
    in
    if kinds <> [] then
      menu := ({ Fault.role; index }, Array.of_list kinds) :: !menu
  in
  let fs = Fault.Fail_stop in
  let drop = Fault.Drop_requests 4 in
  let slow = Fault.Slow { factor = 4; cycles = 20_000 } in
  let cp = Fault.Corrupt_payload 3 in
  let cs = Fault.Corrupt_storage in
  let dup = Fault.Duplicate_delivery 2 in
  for i = 0 to cfg.Config.n_translators - 1 do
    add Fault.Translator i [ fs; slow ]
  done;
  for i = 0 to min 4 cfg.Config.n_l2d_banks - 1 do
    add Fault.L2d i [ fs; drop; slow; cp; cs; dup ]
  done;
  for i = 0 to cfg.Config.n_l15_banks - 1 do
    add Fault.L15 i [ fs; drop; slow; cp; cs; dup ]
  done;
  add Fault.Manager 0 [ drop; slow; cp; cs; dup ];
  add Fault.Mmu 0 [ drop; slow; cp; dup ];
  add Fault.Syscall 0 [ slow ];
  (* Only corruption makes sense here: the execution tile's own L1 code
     store can take a soft error (fail-stop exec is unrecoverable and
     listed below). Empty — hence absent — under the legacy classes. *)
  add Fault.Exec 0 [ cs ];
  if not recoverable_only then begin
    add Fault.Exec 0 [ fs ];
    add Fault.Manager 0 [ fs ];
    add Fault.Mmu 0 [ fs ]
  end;
  Array.of_list (List.rev !menu)

(* The tile of a critical role: the one a survived terminal quarantines. *)
let tile t (role : Fault.role) =
  let l = t.i_layout in
  match role with
  | Exec -> Layout.exec l
  | Manager -> Layout.manager l
  | Mmu -> Layout.mmu l
  | Syscall -> Layout.syscall l
  | L15 | L2d | Translator -> invalid_arg "Vm.tile: not a critical role"

(* Retire what a survived terminal hit: the virtual architecture re-places
   the role away from the dead tile, and a bank that lost a dirty line
   leaves service (its poisoned line goes with it). *)
let quarantine t term =
  Stats.incr t.i_stats "recovery.quarantines";
  match term with
  | Parity_loss { bank; _ } -> Memsys.recovery_retire_bank t.i_memsys bank
  | Failed e -> Grid.fail_tile (Layout.grid t.i_layout) (tile t e.site.role)

(* Each component owns what a fault does at its roles. Storage corruption
   may hit a dirty L2D line only when rollback can survive its loss. *)
let apply_fault t (e : Fault.event) =
  let stats = t.i_stats in
  (* Deterministic victim-selection seed for storage corruption: a pure
     function of the event, so runs replay byte-identically. *)
  let salt = (e.at * 31) + e.site.index in
  Stats.incr stats "fault.injected";
  (match Fault.class_of_kind e.kind with
   | Fault.C_corrupt_payload | Fault.C_corrupt_storage | Fault.C_duplicate ->
     Stats.incr stats "corrupt.injected"
   | Fault.C_fail_stop | Fault.C_drop | Fault.C_slow -> ());
  let result =
    match e.site.role with
    | Translator | L15 | Manager -> Manager.apply_fault t.i_manager e.site e.kind ~salt
    | L2d | Mmu ->
      Memsys.apply_fault t.i_memsys e.site e.kind ~salt ~allow_dirty:t.i_rollback
    | Exec | Syscall -> Exec.apply_fault t.i_exec e.site e.kind ~salt
  in
  match result with
  | `Applied -> ()
  | `Absorbed -> Stats.incr stats "corrupt.absorbed"
  | `Terminal -> terminate t (Failed e)

let fault_class_code k =
  match Fault.class_of_kind k with
  | Fault.C_fail_stop -> 0
  | Fault.C_drop -> 1
  | Fault.C_slow -> 2
  | Fault.C_corrupt_payload -> 3
  | Fault.C_corrupt_storage -> 4
  | Fault.C_duplicate -> 5

(* ------------------------------------------------------------------ *)
(* The recovery ledger                                                 *)
(* ------------------------------------------------------------------ *)

(* One terminal survived by rollback, and the checkpoint cycle the replay
   restarted from. The ledger of these entries travels inside every
   snapshot, which is what makes a resumed run converge on the same
   recovery decisions as the uninterrupted one. *)
type ledger_entry = { terminal : terminal; restore : int }

let terminal_at = function Failed e -> e.at | Parity_loss { at; _ } -> at

(* The snapshot form of a terminal: cycle, role, index, and kind ("" for
   a parity loss, which no plan event describes). *)
let ledger_fields = function
  | Failed e ->
    ( e.at,
      Fault.role_to_string e.site.role,
      e.site.index,
      Fault.kind_to_string e.kind )
  | Parity_loss { at; bank } -> (at, Fault.role_to_string Fault.L2d, bank, "")

(* One snapshot section, written by [f]. *)
let section f =
  let b = Snap.Wr.create () in
  f b;
  Snap.Wr.contents b

let encode_ledger ledger =
  section (fun b ->
      Snap.Wr.int b (List.length ledger);
      List.iter
        (fun le ->
          let at, role, index, kind = ledger_fields le.terminal in
          Snap.Wr.int b at;
          Snap.Wr.string b role;
          Snap.Wr.int b index;
          Snap.Wr.string b kind;
          Snap.Wr.int b le.restore)
        ledger)

(* A snapshot's fingerprint binds it to the run's fault plan, so every
   ledgered plan event is found in that plan again; a ledger that names
   any other event is refused. *)
let decode_ledger plan s =
  let r = Snap.Rd.of_string s in
  List.init (Snap.Rd.int r) (fun _ ->
      let at = Snap.Rd.int r in
      let role = Snap.Rd.string r in
      let index = Snap.Rd.int r in
      let kind = Snap.Rd.string r in
      let restore = Snap.Rd.int r in
      let recorded e = ledger_fields (Failed e) = (at, role, index, kind) in
      let terminal =
        if kind = "" then Parity_loss { at; bank = index }
        else
          match List.find_opt recorded (Fault.events plan) with
          | Some e -> Failed e
          | None ->
            failwith "Vm.run: snapshot ledger names an event outside the fault plan"
      in
      { terminal; restore })

(* ------------------------------------------------------------------ *)
(* One attempt: arming, checkpoints, driving, finalizing               *)
(* ------------------------------------------------------------------ *)

(* Every plan event is scheduled. One the ledger records as already
   survived still hits, but its role has been re-placed away from the
   quarantined tile, so nothing dies. *)
let arm_faults t ~ledger plan =
  let emit =
    Tr.emitter t.i_trace ~track:(Tr.track t.i_trace "faults") Tr.Fault_inject
  in
  List.iter
    (fun (e : Fault.event) ->
      Event_queue.schedule t.i_q ~at:e.at (fun () ->
          if not (Exec.finished t.i_exec) then begin
            Tr.emit emit ~cycle:e.at ~arg:(fault_class_code e.kind);
            if List.exists (fun le -> le.terminal = Failed e) ledger then begin
              Stats.incr t.i_stats "fault.injected";
              Stats.incr t.i_stats "recovery.masked_faults"
            end
            else apply_fault t e
          end))
    (Fault.events plan)

(* Forward-progress watchdog: with faults in play, an unanticipated hang
   (a reply lost on a path without a deadline) must surface as a clean
   diagnostic abort, never as a silent infinite simulation. *)
let arm_watchdog t =
  let q = t.i_q and exec = t.i_exec in
  let stall_cycles = t.i_cfg.Config.watchdog_stall_cycles in
  let interval = max 1 (stall_cycles / 4) in
  let last_insns = ref (-1) in
  let last_progress = ref 0 in
  let rec watch () =
    if not (Exec.finished exec) then begin
      let gi = Exec.guest_instructions exec in
      let now = Event_queue.now q in
      if gi <> !last_insns then begin
        last_insns := gi;
        last_progress := now
      end;
      if now - !last_progress >= stall_cycles then begin
        Stats.incr t.i_stats "fault.watchdog_aborts";
        Exec.abort exec
          (Printf.sprintf
             "watchdog: no guest instruction retired for %d cycles (stall \
              limit %d)"
             (now - !last_progress) stall_cycles)
      end
      else Event_queue.after q ~delay:interval watch
    end
  in
  Event_queue.after q ~delay:interval watch

(* Decimated queue-depth sampler. It observes from the event-queue probe
   and schedules nothing, so the traced run replays the exact event
   sequence of the untraced one. *)
let arm_sampler t =
  if Tr.enabled t.i_trace then begin
    let interval = max 1 t.i_cfg.Config.sample_interval in
    let gauge name =
      Tr.emitter t.i_trace ~track:(Tr.track t.i_trace name) Tr.Queue_depth
    in
    let d_trans = gauge "translate-queue" in
    let d_mgr = gauge "mgr-queue" in
    let d_l2d = gauge "l2d-queue" in
    let d_events = gauge "events" in
    let next = ref 0 in
    Event_queue.set_probe t.i_q (fun ~now ~pending ->
        if now >= !next then begin
          next := now + interval;
          Tr.emit d_trans ~cycle:now ~arg:(Manager.queue_length t.i_manager);
          Tr.emit d_mgr ~cycle:now ~arg:(Manager.mgr_queue_length t.i_manager);
          Tr.emit d_l2d ~cycle:now ~arg:(Memsys.bank_queue_total t.i_memsys);
          Tr.emit d_events ~cycle:now ~arg:pending
        end)
  end

(* Binds a snapshot to one specific run: same configuration, program
   image, input, limits and fault plan, or restore refuses up front
   (replaying someone else's checkpoint can only produce garbage). *)
let fingerprint ~input ~fuel ~max_cycles cfg (prog : Program.t) plan =
  let h = ref 0x811c9dc5 in
  let add v = h := (((!h lxor v) * 0x100000001b3) + 1) land max_int in
  add (Snap.crc32 (Marshal.to_string cfg []));
  add (Mem.checksum prog.mem);
  add prog.entry;
  add prog.initial_esp;
  add prog.brk0;
  Array.iter add prog.page_table;
  add (Snap.crc32 input);
  add fuel;
  add max_cycles;
  add (Fault.seed plan);
  add
    (Snap.crc32
       (String.concat ";" (List.map Fault.event_to_string (Fault.events plan))));
  !h

(* What one [run] fixes for all of its attempts. *)
type spec = {
  fuel : int;
  max_cycles : int;
  plan : Fault.plan;
  fp : int;
  every : int option;  (* checkpoint interval; arms rollback *)
  reference : Snap.t option;  (* the snapshot being restored *)
  on_checkpoint : Snap.t -> unit;
}

let capture t morph s ~every ~ledger now =
  let ints l = section (fun b -> Snap.Wr.int_list b l) in
  let sched =
    section (fun b ->
        List.iter (Snap.Wr.int b)
          [ now; Event_queue.next_seq t.i_q; Event_queue.pending t.i_q;
            Grid.failed_tiles (Layout.grid t.i_layout) ])
  in
  let stats_s =
    section (fun b ->
        let al = Stats.to_alist t.i_stats in
        Snap.Wr.int b (List.length al);
        List.iter
          (fun (k, v) ->
            Snap.Wr.string b k;
            Snap.Wr.int b v)
          al)
  in
  Snap.v ~cycle:now ~fingerprint:s.fp ~interval:every
    ~sections:
      [ ("sched", sched);
        ("exec", Exec.capture t.i_exec);
        ("mgr", Manager.capture t.i_manager);
        ("l2d", Memsys.capture t.i_memsys);
        ("morph", ints (Morph.capture morph));
        ("fault", ints [ Fault.count_before s.plan ~cycle:now ]);
        ("stats", stats_s);
        ("recovery", encode_ledger ledger);
        (* Trace counters are observational high-water marks, not
           replayed machine state: excluded from restore verification
           (any section named "trace*" is). *)
        ("trace.hwm",
         ints
           [ Tr.length t.i_trace; Tr.total t.i_trace; Tr.dropped t.i_trace;
             Tr.max_cycle t.i_trace ]) ]

(* The replay has reached the cycle the reference snapshot was taken at:
   every machine section must match byte for byte, or the restore is not
   a restore. The ledger is provenance, not machine state: a resumed run
   that rolls back again before this cycle re-verifies under a longer
   ledger than the snapshot recorded, with an identical machine. *)
let verify reference snap =
  let diverging =
    List.filter
      (fun name ->
        name <> "recovery" && not (String.starts_with ~prefix:"trace" name))
      (Snap.diff reference snap)
  in
  if diverging <> [] then
    Printf.ksprintf failwith
      "Vm.run: restore verification failed at cycle %d; diverging sections: %s"
      (Snap.cycle snap) (String.concat ", " diverging)

(* Checkpoints every [every] cycles; returns the cycle of the latest one.
   Each ledgered quarantine is applied at its entry's restore cycle. *)
let arm_checkpoints t morph s ~every ~ledger =
  let last_cp = ref 0 in
  (* Checkpoints at or past the frontier are new ground: only those are
     handed to [on_checkpoint]. Everything earlier is replay of cycles a
     previous attempt (or the halted original process) already owned. *)
  let frontier =
    List.fold_left
      (fun acc le -> max acc le.restore)
      (match s.reference with Some r -> Snap.cycle r | None -> 0)
      ledger
  in
  let rec chain at =
    Event_queue.schedule t.i_q ~at (fun () ->
        if (not (Exec.finished t.i_exec)) && Option.is_none t.i_terminal then begin
          let snap = capture t morph s ~every ~ledger at in
          (match s.reference with
           | Some r when Snap.cycle r = at -> verify r snap
           | _ -> ());
          if at >= frontier then s.on_checkpoint snap;
          last_cp := at;
          List.iter (fun le -> if le.restore = at then quarantine t le.terminal) ledger;
          (* Reschedule only while the machine still has work in flight, so
             a genuine deadlock is still detected as one (an unconditional
             chain would tick on to max_cycles). *)
          if Event_queue.pending t.i_q > 0 then chain (at + every)
        end)
  in
  chain every;
  last_cp

let rec drive t ~max_cycles outcome =
  match (!outcome, t.i_terminal) with
  | Some o, _ -> `Done o
  | None, Some term -> `Terminal term
  | None, None ->
    if Event_queue.now t.i_q > max_cycles then
      `Done (Exec.Fault "simulation cycle limit exceeded")
    else if Event_queue.step t.i_q then drive t ~max_cycles outcome
    else `Done (Exec.Fault "simulation deadlock: no events")

let finalize t morph outcome =
  let stats = t.i_stats in
  let cycles = max (Event_queue.now t.i_q) (Exec.local_time t.i_exec) in
  Stats.add stats "total.cycles" cycles;
  Stats.add stats "total.guest_insns" (Exec.guest_instructions t.i_exec);
  Stats.add stats "morph.count" (Morph.morphs morph);
  Manager.finalize t.i_manager;
  Memsys.finalize t.i_memsys;
  Stats.add stats "fault.failed_tiles"
    (Grid.failed_tiles (Layout.grid t.i_layout));
  { outcome;
    cycles;
    guest_insns = Exec.guest_instructions t.i_exec;
    output = Exec.output t.i_exec;
    digest = Exec.digest t.i_exec;
    stats }

(* One simulation attempt on a fresh instance under a fixed ledger: every
   ledgered plan event is masked and every ledgered site quarantined at its
   entry's restore cycle. Returns the finalized result and, when a terminal
   stopped the attempt, that terminal with the latest checkpoint before
   it. *)
let attempt t s ~ledger =
  t.i_rollback <- Option.is_some s.every;
  let morph =
    Morph.create ~trace:t.i_trace t.i_q t.i_stats t.i_cfg t.i_manager t.i_memsys
  in
  arm_sampler t;
  arm_faults t ~ledger s.plan;
  if t.i_cfg.Config.fault_tolerance then arm_watchdog t;
  (* Rollbacks that restored to cycle 0 (the fault fired before the first
     checkpoint): their quarantines belong at machine bring-up. *)
  List.iter (fun le -> if le.restore = 0 then quarantine t le.terminal) ledger;
  let last_cp =
    match s.every with
    | Some every -> arm_checkpoints t morph s ~every ~ledger
    | None -> ref 0
  in
  let outcome = ref None in
  Exec.start t.i_exec ~fuel:s.fuel ~on_finish:(fun o -> outcome := Some o);
  match drive t ~max_cycles:s.max_cycles outcome with
  | `Done o -> (finalize t morph o, None)
  | `Terminal term ->
    (finalize t morph (Exec.Fault (terminal_message term)), Some (term, !last_cp))

(* Only after a real rollback: a run that never rolled back keeps a stats
   table identical to a run with checkpointing off. *)
let add_recovery_stats res ledger =
  if ledger <> [] then begin
    Stats.add res.stats "recovery.rollbacks" (List.length ledger);
    Stats.add res.stats "recovery.replayed_cycles"
      (List.fold_left
         (fun acc le -> acc + (terminal_at le.terminal - le.restore))
         0 ledger)
  end;
  res

let max_rollbacks = 64

let run ?input ?memo ?(fuel = 50_000_000) ?(max_cycles = 2_000_000_000)
    ?(faults = Fault.empty) ?(trace = Tr.disabled) ?checkpoint_every
    ?on_checkpoint ?restore_from cfg prog =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Vm.run: " ^ msg));
  (match checkpoint_every with
   | Some n when n <= 0 -> invalid_arg "Vm.run: checkpoint_every must be positive"
   | _ -> ());
  let cfg =
    if Fault.is_empty faults || cfg.Config.fault_tolerance then cfg
    else { cfg with Config.fault_tolerance = true }
  in
  let fp =
    fingerprint ~input:(Option.value input ~default:"") ~fuel ~max_cycles cfg
      prog faults
  in
  (match restore_from with
   | Some r when Snap.fingerprint r <> fp ->
     invalid_arg
       "Vm.run: snapshot fingerprint mismatch (different configuration, \
        program, input, limits or fault plan)"
   | _ -> ());
  let s =
    { fuel; max_cycles; plan = faults; fp;
      (* Restore ignores the caller's interval: the replayed checkpoint
         chain must land on exactly the cycles the original run
         checkpointed at. *)
      every = Option.fold restore_from ~none:checkpoint_every
          ~some:(fun r -> Some (Snap.interval r));
      reference = restore_from;
      on_checkpoint = Option.value on_checkpoint ~default:ignore }
  in
  (* Each rollback replays from the checkpoint before the terminal, with
     the terminal ledgered. The budget counts the whole ledger, including
     the entries a restored snapshot brought in. *)
  let rec loop ledger =
    (* Each attempt runs against a pristine program image. Guest stores
       mutate the image in place, so replaying an abandoned attempt's
       program from cycle 0 would read its leftover writes and diverge. *)
    let q = Event_queue.create () in
    let t = create ?input ?memo ~trace q (Stats.create ()) cfg (Program.clone prog) in
    match attempt t s ~ledger with
    | _, Some (terminal, restore) when List.length ledger < max_rollbacks ->
      loop (ledger @ [ { terminal; restore } ])
    | res, Some _ ->
      Stats.incr res.stats "fault.unrecoverable";
      add_recovery_stats res ledger
    | res, None -> add_recovery_stats res ledger
  in
  loop
    (match Option.bind restore_from (fun r -> Snap.find r "recovery") with
     | Some payload -> decode_ledger faults payload
     | None -> [])

let slowdown result ~piii_cycles =
  if piii_cycles <= 0 then infinity
  else float_of_int result.cycles /. float_of_int piii_cycles
