(* Object-demographics profiler: allocation-site telemetry, per-belt
   age-at-copy curves and a belt×belt promotion matrix, layered
   entirely on [State.hooks] like the recorder and the sanitizer —
   detached, the collector pays one empty-list match per dispatch site
   and nothing else. Its occupancy/pause time series is the heap's
   [Gc_stats.collection] records from the attach ordinal on ([View]).

   Objects are tracked in a side table keyed by (frame, in-frame word
   offset), exactly the granularity [Frame_table] uses for stamps:
   [on_alloc] inserts a slot carrying the allocation site (read from
   the [State.alloc_site] channel an instrumented mutator stamped just
   before allocating), the birth allocation clock and the object size;
   [on_move] re-keys the slot to its destination and charges the copy
   to the site, the source belt's age histogram and the promotion
   matrix; [on_frame_free] declares every slot still keyed to the
   freed frame dead. Ages are measured on the allocation clock
   ([Gc_stats.words_allocated]), which does not advance during a
   collection — so the profiler's arithmetic is reproducible and can
   be compared exactly against the Shadow heap's lifetime oracle. *)

module State = Beltway.State
module Gc_stats = Beltway.Gc_stats
module Histogram = Beltway_util.Histogram
module Json = Beltway_util.Json

(* Age-at-copy histogram bucket width, in allocation-clock words.
   Shared with the differential test, which rebuilds histograms from
   the oracle's exact ages and demands bucket-for-bucket equality. *)
let age_bucket_words = 256.0

type slot = { sl_site : int; sl_birth : int; sl_words : int }

type t = {
  gc : Beltway.Gc.t;
  mutable frames : (int, slot) Hashtbl.t option array;
      (* frame index -> live slots keyed by in-frame word offset;
         grown on demand, tables recycled on frame free *)
  (* Per-site accumulators, indexed by site id and grown on demand
     (site ids are dense, interned by [State.register_site]). *)
  mutable alloc_objects : int array;
  mutable alloc_words : int array;
  mutable copied_objects : int array;
  mutable copied_words : int array;
  mutable dead_objects : int array;
  mutable dead_words : int array;
  mutable top_belt_objects : int array;
      (* per site: copies whose destination is the top regular belt
         coming from below it — "reached the oldest belt" events *)
  age_hists : Histogram.t array; (* per source belt, age at copy *)
  promotions : int array array; (* [src belt].(dst belt) object copies *)
  view : View.t; (* the series *)
  mutable hooks : State.hooks option;
}

let site_capacity t = Array.length t.alloc_objects

let grow a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_site t s =
  let n = site_capacity t in
  if s >= n then begin
    let n' = max (s + 1) (max 8 (2 * n)) in
    t.alloc_objects <- grow t.alloc_objects n';
    t.alloc_words <- grow t.alloc_words n';
    t.copied_objects <- grow t.copied_objects n';
    t.copied_words <- grow t.copied_words n';
    t.dead_objects <- grow t.dead_objects n';
    t.dead_words <- grow t.dead_words n';
    t.top_belt_objects <- grow t.top_belt_objects n'
  end

let bucket t frame =
  let n = Array.length t.frames in
  if frame >= n then begin
    let a = Array.make (max (frame + 1) (2 * n)) None in
    Array.blit t.frames 0 a 0 n;
    t.frames <- a
  end;
  match t.frames.(frame) with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    t.frames.(frame) <- Some tbl;
    tbl

let belt_of_frame st frame =
  match State.inc_of_frame st frame with
  | Some inc -> inc.Beltway.Increment.belt
  | None -> -1

let record_alloc t ~addr ~nfields =
  let st = Beltway.Gc.state t.gc in
  let site = st.State.alloc_site in
  ensure_site t site;
  let words = Object_model.size_words ~nfields in
  t.alloc_objects.(site) <- t.alloc_objects.(site) + 1;
  t.alloc_words.(site) <- t.alloc_words.(site) + words;
  let mem = st.State.mem in
  (* on_alloc fires after the clock is bumped, so birth includes the
     object's own size — mirrored exactly by the Shadow oracle. *)
  Hashtbl.replace
    (bucket t (Memory.addr_frame mem addr))
    (Memory.addr_offset mem addr)
    { sl_site = site; sl_birth = st.State.stats.Gc_stats.words_allocated; sl_words = words }

let record_move t ~src ~dst =
  let st = Beltway.Gc.state t.gc in
  let mem = st.State.mem in
  let sframe = Memory.addr_frame mem src in
  let stbl = bucket t sframe in
  let soff = Memory.addr_offset mem src in
  match Hashtbl.find_opt stbl soff with
  | None -> () (* allocated before attach; untracked *)
  | Some sl ->
    Hashtbl.remove stbl soff;
    Hashtbl.replace
      (bucket t (Memory.addr_frame mem dst))
      (Memory.addr_offset mem dst)
      sl;
    ensure_site t sl.sl_site;
    t.copied_objects.(sl.sl_site) <- t.copied_objects.(sl.sl_site) + 1;
    t.copied_words.(sl.sl_site) <- t.copied_words.(sl.sl_site) + sl.sl_words;
    let src_belt = belt_of_frame st sframe in
    let dst_belt = belt_of_frame st (Memory.addr_frame mem dst) in
    let age = st.State.stats.Gc_stats.words_allocated - sl.sl_birth in
    if src_belt >= 0 then
      Histogram.add t.age_hists.(src_belt) (float_of_int age);
    if src_belt >= 0 && dst_belt >= 0 then begin
      t.promotions.(src_belt).(dst_belt) <-
        t.promotions.(src_belt).(dst_belt) + 1;
      let top = State.regular_belts st - 1 in
      if dst_belt = top && src_belt <> top then
        t.top_belt_objects.(sl.sl_site) <- t.top_belt_objects.(sl.sl_site) + 1
    end

let record_frame_free t ~frame =
  if frame < Array.length t.frames then
    match t.frames.(frame) with
    | None -> ()
    | Some tbl ->
      Hashtbl.iter
        (fun _ sl ->
          ensure_site t sl.sl_site;
          t.dead_objects.(sl.sl_site) <- t.dead_objects.(sl.sl_site) + 1;
          t.dead_words.(sl.sl_site) <- t.dead_words.(sl.sl_site) + sl.sl_words)
        tbl;
      Hashtbl.reset tbl (* keep the table: frames are recycled *)

(* An in-place strategy reclaimed one object without freeing its
   frame (swept into a free list, or slid over by the compactor):
   charge the site's death accumulators directly. Freed-frame deaths
   keep going through [record_frame_free] — the collector fires
   exactly one of the two per dead object, never both. *)
let record_object_dead t ~addr =
  let st = Beltway.Gc.state t.gc in
  let mem = st.State.mem in
  let tbl = bucket t (Memory.addr_frame mem addr) in
  let off = Memory.addr_offset mem addr in
  match Hashtbl.find_opt tbl off with
  | None -> () (* allocated before attach; untracked *)
  | Some sl ->
    Hashtbl.remove tbl off;
    ensure_site t sl.sl_site;
    t.dead_objects.(sl.sl_site) <- t.dead_objects.(sl.sl_site) + 1;
    t.dead_words.(sl.sl_site) <- t.dead_words.(sl.sl_site) + sl.sl_words

let attach gc =
  let st = Beltway.Gc.state gc in
  let nbelts = Array.length st.State.belts in
  let t =
    {
      gc;
      frames = Array.make (max 16 (Memory.max_frames st.State.mem)) None;
      alloc_objects = Array.make 8 0;
      alloc_words = Array.make 8 0;
      copied_objects = Array.make 8 0;
      copied_words = Array.make 8 0;
      dead_objects = Array.make 8 0;
      dead_words = Array.make 8 0;
      top_belt_objects = Array.make 8 0;
      age_hists =
        Array.init nbelts (fun _ ->
            Histogram.create ~bucket_width:age_bucket_words ());
      promotions = Array.init nbelts (fun _ -> Array.make nbelts 0);
      view = View.attach gc;
      hooks = None;
    }
  in
  let hooks =
    {
      State.noop_hooks with
      State.on_alloc = (fun ~addr ~tib:_ ~nfields -> record_alloc t ~addr ~nfields);
      on_move = (fun ~src ~dst -> record_move t ~src ~dst);
      on_frame_free = (fun ~frame ~belt:_ -> record_frame_free t ~frame);
      on_object_dead = (fun ~addr ~words:_ -> record_object_dead t ~addr);
    }
  in
  State.add_hooks st hooks;
  t.hooks <- Some hooks;
  t

let detach t =
  match t.hooks with
  | None -> ()
  | Some h ->
    State.remove_hooks (Beltway.Gc.state t.gc) h;
    View.detach t.view;
    t.hooks <- None

let gc t = t.gc

let get a i = if i < Array.length a then a.(i) else 0
let site_alloc_objects t s = get t.alloc_objects s
let site_alloc_words t s = get t.alloc_words s
let site_copied_objects t s = get t.copied_objects s
let site_copied_words t s = get t.copied_words s
let site_dead_objects t s = get t.dead_objects s
let site_dead_words t s = get t.dead_words s
let site_top_belt_objects t s = get t.top_belt_objects s
let age_histogram t ~belt = t.age_hists.(belt)
let belts t = Array.length t.age_hists
let promotions t = Array.map Array.copy t.promotions
let collections t = View.length t.view

(* Pretenuring hint: a site qualifies when it has allocated enough to
   matter and at least half its objects were eventually copied into
   the top (oldest regular) belt — the §5 static-segregation signal. *)
let pretenure_min_objects = 32

let pretenure_site t s =
  let allocs = site_alloc_objects t s in
  allocs >= pretenure_min_objects && 2 * site_top_belt_objects t s >= allocs

let pretenure_sites t =
  let n = Beltway.Gc.site_count t.gc in
  let acc = ref [] in
  for s = n - 1 downto 0 do
    if pretenure_site t s then acc := s :: !acc
  done;
  !acc

(* ---- export -------------------------------------------------------- *)

let schema = "beltway-profile/1"

let histogram_json h =
  Json.Obj
    [
      ("bucket_words", Json.Num age_bucket_words);
      ("count", Json.Num (float_of_int (Histogram.count h)));
      ("max_age", Json.Num (Histogram.max_value h));
      ( "buckets",
        Json.Arr
          (List.map
             (fun (lower, count) ->
               Json.Arr [ Json.Num lower; Json.Num (float_of_int count) ])
             (Histogram.buckets h)) );
    ]

let site_json t s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s));
      ("site", Json.Str (Beltway.Gc.site_name t.gc s));
      ("alloc_objects", Json.Num (float_of_int (site_alloc_objects t s)));
      ("alloc_words", Json.Num (float_of_int (site_alloc_words t s)));
      ("copied_objects", Json.Num (float_of_int (site_copied_objects t s)));
      ("copied_words", Json.Num (float_of_int (site_copied_words t s)));
      ("dead_objects", Json.Num (float_of_int (site_dead_objects t s)));
      ("dead_words", Json.Num (float_of_int (site_dead_words t s)));
      ("top_belt_objects", Json.Num (float_of_int (site_top_belt_objects t s)));
      ("pretenure", Json.Bool (pretenure_site t s));
    ]

let sample_json (c : Gc_stats.collection) =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("gc", num c.Gc_stats.n);
      ("clock_words", num c.Gc_stats.clock_words);
      ("frames_used", num c.Gc_stats.heap_frames_after);
      ("reserve_frames", num c.Gc_stats.reserve_frames);
      ("remset_entries", num c.Gc_stats.remset_entries);
      ("copied_words", num c.Gc_stats.copied_words);
      ("pause_us", Json.Num (float_of_int c.Gc_stats.pause_ns /. 1e3));
      ("belt_frames", Json.Arr (Array.to_list (Array.map num c.Gc_stats.belt_frames)));
    ]

let run_json ?(name = "run") t =
  let st = Beltway.Gc.state t.gc in
  let nsites = Beltway.Gc.site_count t.gc in
  let sites = ref [] in
  for s = nsites - 1 downto 0 do
    if site_alloc_objects t s > 0 then sites := site_json t s :: !sites
  done;
  Json.Obj
    [
      ("name", Json.Str name);
      ("config", Json.Str st.State.config.Beltway.Config.label);
      ("policy", Json.Str st.State.policy.State.policy_name);
      ("collections", Json.Num (float_of_int (collections t)));
      ("sites", Json.Arr !sites);
      ( "belts",
        Json.Arr
          (Array.to_list
             (Array.mapi
                (fun b h ->
                  Json.Obj
                    [
                      ("belt", Json.Num (float_of_int b));
                      ("age_histogram", histogram_json h);
                    ])
                t.age_hists)) );
      ( "promotions",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun row ->
                  Json.Arr
                    (Array.to_list
                       (Array.map (fun n -> Json.Num (float_of_int n)) row)))
                t.promotions)) );
      ("series", Json.Arr (List.map sample_json (View.to_list t.view)));
    ]

let runs_json runs = Json.Obj [ ("schema", Json.Str schema); ("runs", Json.Arr runs) ]
let write_file file runs = Chrome_trace.write_file file (runs_json runs)

(* Text report: the top-N sites by allocated words, with survival and
   pretenuring columns. Deterministic — counts only, no wall clock. *)
let report ?(top = 10) fmt t =
  let nsites = Beltway.Gc.site_count t.gc in
  let ids = ref [] in
  for s = nsites - 1 downto 0 do
    if site_alloc_objects t s > 0 then ids := s :: !ids
  done;
  let ids =
    List.sort
      (fun a b ->
        match compare (site_alloc_words t b) (site_alloc_words t a) with
        | 0 -> compare a b
        | c -> c)
      !ids
  in
  let shown = List.filteri (fun i _ -> i < top) ids in
  Format.fprintf fmt "@[<v>profile: %d sites, %d collections@,"
    (List.length ids) (collections t);
  Format.fprintf fmt "%-40s %10s %10s %10s %8s %8s@," "site" "allocs"
    "words" "copied" "surv%" "top%";
  List.iter
    (fun s ->
      let allocs = site_alloc_objects t s in
      let pct n = if allocs = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int allocs in
      Format.fprintf fmt "%-40s %10d %10d %10d %7.1f%% %7.1f%%@,"
        (Beltway.Gc.site_name t.gc s)
        allocs (site_alloc_words t s) (site_copied_objects t s)
        (pct (site_copied_objects t s))
        (pct (site_top_belt_objects t s)))
    shown;
  (match pretenure_sites t with
  | [] -> Format.fprintf fmt "pretenure hints: none"
  | sites ->
    Format.fprintf fmt "pretenure hints: %s"
      (String.concat ", " (List.map (Beltway.Gc.site_name t.gc) sites)));
  Format.fprintf fmt "@]"

let env_file () =
  match Sys.getenv_opt "BELTWAY_PROFILE" with
  | Some "" | None -> None
  | Some f -> Some f
