(* The traced pass: per-layer host cost. Every figure here is taken from
   the benchmark's own code, by timing (Unix.gettimeofday) and counting
   allocation (Gc.minor_words) around calls into one layer's public
   functions; the library itself carries no host-side instrumentation. *)

open Vat_desim
open Vat_guest
open Vat_tiled
open Vat_core
open Work

module Trace = Vat_trace.Trace
module Snap = Vat_snapshot.Snapshot

(* Translator knob sets covered by the block hash. Config.default already
   has superblocks off, so the third set flips that knob on (the
   ablation bench's superblock setting). *)
let knob_sets =
  [ ("default", Config.default);
    ("noopt", { Config.default with optimize = false });
    ("superblocks", { Config.default with superblocks = true }) ]

(* Host seconds and minor words spent in [f]. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t = now () -. t0 in
  (t, Gc.minor_words () -. w0, r)

(* Repeat a cheap probe until it has run for 0.2 s; per-call seconds and
   minor words. [f] returns how many calls it made. *)
let per_call f =
  let calls = ref 0 and secs = ref 0. and words = ref 0. in
  while !secs < 0.2 do
    let t, w, n = measure f in
    calls := !calls + n;
    secs := !secs +. t;
    words := !words +. w
  done;
  (!secs /. float_of_int !calls, !words /. float_of_int !calls)

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Guest addresses of the blocks a run translated (its Translate_end
   events), in address order. *)
let block_set trace =
  let seen = Hashtbl.create 1024 in
  Trace.iter trace (fun r -> if r.Trace.kind = Trace.Translate_end then Hashtbl.replace seen r.Trace.arg ());
  List.sort compare (Hashtbl.fold (fun a () l -> a :: l) seen [])

let block_bytes (b : Block.t) =
  Marshal.to_string
    (b.guest_addr, b.code, b.term, b.translation_cycles, b.checksum)
    [ Marshal.No_sharing ]

(* Per program: cold, warm and traced runs on the default config. *)
type per_program = {
  p : program;
  cold_s : float;
  warm_s : float;
  warm_words : float;
  warm : Vm.result;
  traced_s : float;
  memo : Translate.Memo.t;  (* warm after the cold run *)
  sets : (string * int list) list;  (* knob set -> block set *)
}

let profile_program p =
  let memo = Translate.Memo.create () in
  let name = p.bench.Vat_workloads.Suite.name in
  let cold_s, _, cold = measure (fun () -> Vm.run ~fuel ~memo Config.default p.image) in
  check_run (name ^ " cold") p cold [];
  let warm_s, warm_words, warm = measure (fun () -> Vm.run ~fuel ~memo Config.default p.image) in
  check_run (name ^ " warm") p warm
    [ ("warm cycles = cold", warm.Vm.cycles = cold.Vm.cycles) ];
  let traced_s = ref 0. in
  let sets =
    List.map
      (fun (k, cfg) ->
        let trace = Trace.create () in
        let t, _, r =
          measure (fun () ->
              Vm.run ~fuel ~memo:(Translate.Memo.create ()) ~trace cfg p.image)
        in
        let same_as_untraced =
          if k = "default" then begin
            traced_s := t;
            [ ("traced cycles = untraced", r.Vm.cycles = cold.Vm.cycles);
              ("traced digest = untraced", r.Vm.digest = cold.Vm.digest);
              ("traced stats = untraced",
               Stats.to_alist r.Vm.stats = Stats.to_alist cold.Vm.stats) ]
          end
          else []
        in
        check_run (name ^ " traced " ^ k) p r
          (("trace kept every record", Trace.dropped trace = 0) :: same_as_untraced);
        (k, block_set trace))
      knob_sets
  in
  { p; cold_s; warm_s; warm_words; warm; traced_s = !traced_s; memo; sets }

(* Translate every block of every program's [k] set under [cfg]. *)
let replay pps k cfg =
  measure (fun () ->
      List.concat_map
        (fun pp ->
          let fetch = Mem.read_u8 pp.p.image.Program.mem in
          List.map (fun a -> Translate.translate cfg ~fetch ~guest_addr:a) (List.assoc k pp.sets))
        pps)

(* [default_blocks] is the default set's replay, already made. *)
let block_hash pps default_blocks =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (k, cfg) ->
      let blocks =
        if k = "default" then default_blocks
        else
          let _, _, b = replay pps k cfg in
          b
      in
      List.iter (fun b -> Buffer.add_string buf (Digest.string (block_bytes b))) blocks)
    knob_sets;
  hash48 (Buffer.contents buf)

let memo_hit_ns pps =
  let calls = isum (fun pp -> List.length (List.assoc "default" pp.sets)) pps in
  let hits0 = isum (fun pp -> Translate.Memo.hits pp.memo) pps in
  let t, _, () =
    measure (fun () ->
        List.iter
          (fun pp ->
            let mem = pp.p.image.Program.mem in
            let fetch = Mem.read_u8 mem in
            let page_gen ~page = Mem.page_generation mem ~page in
            List.iter
              (fun a ->
                ignore
                  (Translate.translate_memo ~memo:pp.memo Config.default ~fetch ~page_gen
                     ~guest_addr:a))
              (List.assoc "default" pp.sets))
          pps)
  in
  let hits = isum (fun pp -> Translate.Memo.hits pp.memo) pps - hits0 in
  operation "memo probe" [ ("every lookup hits", hits = calls) ];
  t /. float_of_int calls *. 1e9

let code_cache blocks =
  let n = List.length blocks in
  let cfg = Config.default in
  let l1 =
    per_call (fun () ->
        let l1 = Code_cache.L1.create ~capacity:cfg.Config.l1_code_bytes in
        List.iter (fun b -> ignore (Code_cache.L1.install l1 b)) blocks;
        n)
  in
  let l15, _ =
    per_call (fun () ->
        let c = Code_cache.L15.create ~capacity:cfg.Config.l15_bank_bytes in
        List.iter
          (fun (b : Block.t) ->
            Code_cache.L15.install c b;
            ignore (Code_cache.L15.find c b.guest_addr))
          blocks;
        n)
  in
  let l2, _ =
    per_call (fun () ->
        let c = Code_cache.L2.create ~capacity:cfg.Config.l2_code_bytes in
        List.iter
          (fun (b : Block.t) ->
            Code_cache.L2.install c b;
            ignore (Code_cache.L2.find c b.guest_addr))
          blocks;
        n)
  in
  (l1, l15, l2)

(* Vm.create/Vm.start on the benchmark's own event queue, so events can
   be counted; it must reproduce Vm.run's cycles and digest. *)
let drive pp =
  let q = Event_queue.create () and stats = Stats.create () in
  let inst = Vm.create ~memo:pp.memo q stats Config.default (Program.clone pp.p.image) in
  let outcome = ref None in
  Vm.start inst ~fuel ~on_finish:(fun o -> outcome := Some o);
  let events = ref 0 in
  let t, _, () =
    measure (fun () ->
        while Option.is_none !outcome && Event_queue.step q do
          incr events
        done)
  in
  let exec = Vm.exec_of inst in
  let cycles = max (Event_queue.now q) (Exec.local_time exec) in
  operation (pp.p.bench.Vat_workloads.Suite.name ^ " own-queue drive")
    [ ("exits", match !outcome with Some o -> exited o | None -> false);
      ("cycles = Vm.run", cycles = pp.warm.Vm.cycles);
      ("digest = Vm.run", Exec.digest exec = pp.warm.Vm.digest) ];
  (t, !events)

let cache_access ~seed =
  let cfg = Config.default in
  let rng = Rng.create ~seed in
  (* A working set twice the L1D's size: a mix of hits and misses. *)
  let span = 2 * cfg.Config.l1d_bytes in
  let addrs = Array.init 100_000 (fun _ -> 0x100000 + Rng.int rng span) in
  let writes = Array.init 100_000 (fun _ -> Rng.int rng 3 = 0) in
  per_call (fun () ->
      let c =
        Cache.create ~name:"l1d" ~size_bytes:cfg.Config.l1d_bytes ~ways:cfg.Config.l1d_ways
          ~line_bytes:cfg.Config.line_bytes
      in
      Array.iteri (fun i a -> ignore (Cache.access c ~addr:a ~write:writes.(i))) addrs;
      Array.length addrs)

(* Steady churn: 1000 pending events, each firing schedules another. *)
let event_queue_churn ~seed =
  let rng = Rng.create ~seed in
  let delays = Array.init 4096 (fun _ -> 1 + Rng.int rng 200) in
  fst
    (per_call (fun () ->
         let q = Event_queue.create () in
         let n = 200_000 and fired = ref 0 in
         let rec ev () =
           incr fired;
           if !fired < n then
             Event_queue.after q ~delay:delays.(!fired land 4095) ev
         in
         for i = 0 to 999 do
           Event_queue.after q ~delay:delays.(i) ev
         done;
         while !fired < n && Event_queue.step q do () done;
         !fired))

(* Checkpointed and faulted runs of the recovery workload's programs and
   plan, against the plain warm runs; the snapshot/recovery metrics. *)
let recovery_probe pps ~fault_seed =
  let names = List.map (fun n -> (Vat_workloads.Suite.find n).name) recovery_benchmarks in
  let pps = List.filter (fun pp -> List.mem pp.p.bench.Vat_workloads.Suite.name names) pps in
  let rows =
    List.map
      (fun pp ->
        let name = pp.p.bench.Vat_workloads.Suite.name in
        let snaps = ref [] in
        let ck_s, _, ck =
          measure (fun () ->
              Vm.run ~fuel ~memo:pp.memo ~checkpoint_every
                ~on_checkpoint:(fun s -> snaps := s :: !snaps)
                Config.default pp.p.image)
        in
        check_run (name ^ " checkpointed") pp.p ck
          [ ("checkpointed cycles = plain", ck.Vm.cycles = pp.warm.Vm.cycles);
            ("checkpointed stats = plain",
             Stats.to_alist ck.Vm.stats = Stats.to_alist pp.warm.Vm.stats) ];
        let faulted_s, _, r =
          measure (fun () ->
              Vm.run ~fuel ~memo:pp.memo ~faults:(fault_plan fault_seed) ~checkpoint_every
                Config.default pp.p.image)
        in
        check_run (Printf.sprintf "%s faulted plan%d" name fault_seed) pp.p r
          [ ("digest = fault-free", r.Vm.digest = pp.warm.Vm.digest) ];
        (!snaps, ck_s -. pp.warm_s, faulted_s -. ck_s, r))
      pps
  in
  let snaps = List.concat_map (fun (s, _, _, _) -> s) rows in
  let images = List.map Snap.to_string snaps in
  let captures = List.length snaps in
  let encode_s, _ =
    per_call (fun () -> List.iter (fun s -> ignore (Snap.to_string s)) snaps; captures)
  in
  let decode_s, _ =
    per_call (fun () -> List.iter (fun i -> ignore (Snap.of_string i)) images; captures)
  in
  operation "snapshot round trip"
    [ ("decode (encode s) = s",
       List.for_all2 (fun s i -> Snap.equal s (Snap.of_string i)) snaps images) ];
  [ ("snapshot.captures", Int captures, "count");
    ("snapshot.bytes", Int (isum String.length images), "bytes");
    ("snapshot.capture_ms",
     Float (sum (fun (_, d, _, _) -> d) rows /. float_of_int captures *. 1e3), "ms");
    ("snapshot.encode_us", Float (encode_s *. 1e6), "us");
    ("snapshot.decode_us", Float (decode_s *. 1e6), "us");
    ("recovery.rollbacks", Int (isum (fun (_, _, _, r) -> Metrics.recoveries r) rows), "count");
    ("recovery.replayed_cycles",
     Int (isum (fun (_, _, _, r) -> Metrics.replayed_cycles r) rows), "cycles");
    ("recovery.replay_s", Float (sum (fun (_, _, d, _) -> d) rows), "s") ]

(* The whole traced pass. [reference] is one untraced pass over the
   workload's own runs, for the model counters. *)
let metrics ~seed ~fault_seed (s : setup) items (reference : pass) =
  let outs = reference.outcomes in
  let n_prog = List.length s.programs in
  let pps = List.map profile_program s.programs in
  let insns = isum (fun pp -> pp.warm.Vm.guest_insns) pps in
  let t_opt, w_opt, blocks = replay pps "default" Config.default in
  let t_noopt, w_noopt, _ = replay pps "default" (List.assoc "noopt" knob_sets) in
  let nb = float_of_int (List.length blocks) in
  let (l1_s, l1_w), l15_s, l2_s = code_cache blocks in
  let drives = List.map drive pps in
  let events = isum snd drives in
  let cache_s, cache_w = cache_access ~seed in
  let us x = x *. 1e6 and ns x = x *. 1e9 in
  [ ("workloads.assemble_ms", Float (s.assemble_s /. float_of_int n_prog *. 1e3), "ms");
    ("refmodel.piii_ns_per_insn", Float (ns (s.piii_s /. float_of_int s.piii_insns)), "ns");
    ("guest.interp_ns_per_insn", Float (ns (s.interp_s /. float_of_int s.interp_insns)), "ns");
    ("translate.blocks", Int (List.length blocks), "count");
    ("translate.us_per_block", Float (us (t_opt /. nb)), "us");
    ("translate.words_per_block", Float (w_opt /. nb), "words");
    ("translate.noopt_us_per_block", Float (us (t_noopt /. nb)), "us");
    ("translate.noopt_words_per_block", Float (w_noopt /. nb), "words");
    ("translate.host_insns_per_block",
     Float (float_of_int (isum (fun (b : Block.t) -> Array.length b.code) blocks) /. nb), "insns");
    ("translate.block_hash", Int (block_hash pps blocks), "hash");
    ("ir.opt_sched_share", Float ((t_opt -. t_noopt) /. t_opt), "fraction");
    ("vm.translate_s", Float (sum (fun pp -> pp.cold_s -. pp.warm_s) pps), "s");
    ("model.translations", Int (sum_stat outs "translations"), "count");
    ("model.translations_per_run",
     Float (float_of_int (sum_stat outs "translations") /. float_of_int (Array.length outs)),
     "count");
    ("memo.hits", Int (Array.fold_left (fun a o -> a + o.memo_hits) 0 outs), "count");
    ("memo.misses", Int (Array.fold_left (fun a o -> a + o.memo_misses) 0 outs), "count");
    ("memo.hit_ns", Float (memo_hit_ns pps), "ns");
    ("code_cache.l1_install_ns", Float (ns l1_s), "ns");
    ("code_cache.l1_install_words", Float l1_w, "words");
    ("code_cache.l15_ns", Float (ns l15_s), "ns");
    ("code_cache.l2_ns", Float (ns l2_s), "ns");
    ("model.l1code_installs", Int (sum_stat outs "l1code.installs"), "count");
    ("engine.ns_per_guest_insn", Float (ns (sum (fun pp -> pp.warm_s) pps /. float_of_int insns)), "ns");
    ("engine.words_per_guest_insn", Float (sum (fun pp -> pp.warm_words) pps /. float_of_int insns), "words");
    ("event_queue.events", Int events, "count");
    ("engine.ns_per_event", Float (ns (sum fst drives /. float_of_int events)), "ns");
    ("tiled.cache_access_ns", Float (ns cache_s), "ns");
    ("tiled.cache_access_words", Float cache_w, "words");
    ("desim.event_queue_churn_ns", Float (ns (event_queue_churn ~seed)), "ns");
    ("model.dispatches", Int (sum_stat outs "exec.dispatches"), "count");
    ("model.l1d_accesses", Int (sum_stat outs "l1d.loads" + sum_stat outs "l1d.stores"), "count");
    ("model.l2d_accesses", Int (sum_stat outs "l2d.accesses"), "count");
    ("model.reconfigurations", Int (sum_stat outs "morph.count"), "count") ]
  @ recovery_probe pps ~fault_seed
  @ [ ("trace.overhead_frac",
       Float ((sum (fun pp -> pp.traced_s) pps /. sum (fun pp -> pp.cold_s) pps) -. 1.),
       "fraction");
      ("model.sim_cycles", Int (Array.fold_left (fun a o -> a + o.result.Vm.cycles) 0 outs),
       "cycles");
      ("model.stats_hash", Int (stats_hash items outs), "hash") ]
