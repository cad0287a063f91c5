(* Bechamel microbenchmarks: one Test.make per table/figure, measuring the
   kernel that dominates that experiment's simulation. *)

open Bechamel
open Vat_desim
open Vat_guest
open Vat_core

let sample_program =
  lazy
    (let b = Vat_workloads.Suite.find "gzip" in
     Vat_workloads.Suite.load b)

let sample_block_cfg = Config.default

let translate_once () =
  let prog = Lazy.force sample_program in
  Translate.translate sample_block_cfg
    ~fetch:(Mem.read_u8 prog.Program.mem)
    ~guest_addr:prog.Program.entry

let sample_block = lazy (translate_once ())

(* fig4: the L1.5 code cache's install + lookup. *)
let bench_l15 =
  Test.make ~name:"fig4-l15-install-find"
    (Staged.stage (fun () ->
         let block = Lazy.force sample_block in
         let l15 = Code_cache.L15.create ~capacity:(64 * 1024) in
         Code_cache.L15.install l15 block;
         ignore (Code_cache.L15.find l15 block.guest_addr)))

(* fig5: speculation queue enqueue/pop. *)
let bench_spec =
  Test.make ~name:"fig5-spec-queues"
    (Staged.stage (fun () ->
         let stats = Stats.create () in
         let spec = Spec.create Config.default stats in
         for a = 0 to 63 do
           Spec.seed spec (0x1000 + (a * 16))
         done;
         let rec drain () =
           match Spec.pop spec with Some _ -> drain () | None -> ()
         in
         drain ()))

(* fig6/7: the manager's L2 code-cache table. *)
let bench_l2code =
  Test.make ~name:"fig6-l2-code-cache"
    (Staged.stage (fun () ->
         let block = Lazy.force sample_block in
         let l2 = Code_cache.L2.create ~capacity:(1 lsl 20) in
         Code_cache.L2.install l2 block;
         ignore (Code_cache.L2.find l2 block.guest_addr);
         ignore (Code_cache.L2.page_has_code l2 ~page:block.page_lo)))

(* fig8: the optimizer pipeline on a freshly generated body. *)
let bench_opt =
  Test.make ~name:"fig8-optimizer"
    (Staged.stage (fun () -> ignore (translate_once ())))

(* fig9/10: reconfiguration's dominant cost, a bank flush. *)
let bench_flush =
  Test.make ~name:"fig9-bank-flush"
    (Staged.stage (fun () ->
         let c =
           Vat_tiled.Cache.create ~name:"bench" ~size_bytes:(32 * 1024)
             ~ways:4 ~line_bytes:32
         in
         for i = 0 to 255 do
           ignore (Vat_tiled.Cache.access c ~addr:(i * 32) ~write:true)
         done;
         ignore (Vat_tiled.Cache.flush c)))

(* fig11: the data-memory path's cache model. *)
let bench_cache =
  Test.make ~name:"fig11-cache-access"
    (Staged.stage
       (let c =
          Vat_tiled.Cache.create ~name:"bench" ~size_bytes:(32 * 1024) ~ways:2
            ~line_bytes:32
        in
        let i = ref 0 in
        fun () ->
          incr i;
          ignore
            (Vat_tiled.Cache.access c ~addr:(!i * 1664 land 0xFFFF) ~write:false)))

(* analysis: the CPI formula. *)
let bench_analysis =
  Test.make ~name:"analysis-cpi"
    (Staged.stage (fun () ->
         ignore
           (Analysis.decompose Config.default ~mem_access_rate:0.3
              ~l1_miss_rate:0.06 ~l2_miss_rate:0.25)))

(* Cross-cutting kernels. *)
let bench_interp =
  Test.make ~name:"guest-interp-1k-insns"
    (Staged.stage (fun () ->
         let prog = Lazy.force sample_program in
         let t = Interp.create prog in
         ignore (Interp.run ~fuel:1000 t)))

let bench_event_queue =
  Test.make ~name:"desim-event-queue-1k"
    (Staged.stage (fun () ->
         let q = Event_queue.create () in
         for i = 1 to 1000 do
           Event_queue.schedule q ~at:i ignore
         done;
         Event_queue.run q))

(* Hot-path kernels the PR 2 overhaul targets. *)

(* Schedule/pop interleaved at a steady queue depth — the engine's
   per-message pattern, as opposed to the fill-then-drain case above. *)
let bench_eq_churn =
  Test.make ~name:"desim-event-queue-churn-1k"
    (Staged.stage (fun () ->
         let q = Event_queue.create () in
         for i = 1 to 64 do
           Event_queue.schedule q ~at:i ignore
         done;
         for i = 1 to 1000 do
           Event_queue.schedule q ~at:(Event_queue.now q + 64 + (i land 7)) ignore;
           ignore (Event_queue.step q)
         done))

(* The engine's per-instruction scoreboard test: one [land] against the
   precomputed use mask (plus the bit walk when a stall is charged). *)
let bench_scoreboard =
  Test.make ~name:"exec-scoreboard-check"
    (Staged.stage
       (let entry =
          lazy
            (let l1 = Code_cache.L1.create ~capacity:(1 lsl 16) in
             Code_cache.L1.install l1 (Lazy.force sample_block))
        in
        fun () ->
          let entry = Lazy.force entry in
          let pending = 1 lsl 7 in
          let hits = ref 0 in
          let masks = entry.Code_cache.L1.block.Block.masks in
          for i = 0 to Array.length masks - 1 do
            if Block.use_bits masks.(i) land pending <> 0 then incr hits
          done;
          ignore !hits))

(* The translation memo's hit path: key build, lookup, guest-byte
   comparison — what a config-sweep cell pays instead of retranslating.
   Like bench's per-benchmark memos, this one serves a single program,
   for hit rate only: a memo is sound across programs. *)
let bench_memo_hit =
  Test.make ~name:"translate-memo-hit"
    (Staged.stage
       (let state =
          lazy
            (let prog = Lazy.force sample_program in
             let memo = Translate.Memo.create () in
             let fetch = Mem.read_u8 prog.Program.mem in
             let page_gen ~page = Mem.page_generation prog.Program.mem ~page in
             ignore
               (Translate.translate_memo ~memo sample_block_cfg ~fetch
                  ~page_gen ~guest_addr:prog.Program.entry);
             (memo, fetch, page_gen, prog.Program.entry))
        in
        fun () ->
          let memo, fetch, page_gen, entry = Lazy.force state in
          ignore
            (Translate.translate_memo ~memo sample_block_cfg ~fetch ~page_gen
               ~guest_addr:entry)))

let tests =
  Test.make_grouped ~name:"vat"
    [ bench_l15; bench_spec; bench_l2code; bench_opt; bench_flush;
      bench_cache; bench_analysis; bench_interp; bench_event_queue;
      bench_eq_churn; bench_scoreboard; bench_memo_hit ]

(* Run every microbenchmark briefly and print an estimated ns/run. *)
let run () =
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "\nMicrobenchmarks (Bechamel, monotonic clock, ns/run):\n";
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> Printf.printf "  %-28s %12.1f ns\n" name est
      | Some [] | None -> Printf.printf "  %-28s %12s\n" name "n/a")
    rows
