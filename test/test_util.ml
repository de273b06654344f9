(* Tests for beltway.util: PRNG, vectors, priority queue, statistics,
   tables, histograms. *)

module Prng = Beltway_util.Prng
module Vec = Beltway_util.Vec
module Int_vec = Beltway_util.Int_vec
module Pqueue = Beltway_util.Pqueue
module SM = Beltway_util.Stats_math
module Table = Beltway_util.Table
module Histogram = Beltway_util.Histogram
module Json = Beltway_util.Json

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---- Prng ---- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    checki "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.next a <> Prng.next b then distinct := true
  done;
  checkb "different seeds differ" true !distinct

let test_prng_bounds () =
  let r = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    checkb "int in [0,17)" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in r 5 9 in
    checkb "int_in inclusive" true (v >= 5 && v <= 9)
  done

let test_prng_int_invalid () =
  let r = Prng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_copy_split () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  checki "copy continues identically" (Prng.next a) (Prng.next b);
  let c = Prng.split a in
  checkb "split diverges" true (Prng.next a <> Prng.next c)

let test_prng_chance () =
  let r = Prng.create ~seed:3 in
  checkb "p=0 never" false (Prng.chance r 0.0);
  checkb "p=1 always" true (Prng.chance r 1.0);
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.chance r 0.3 then incr hits
  done;
  checkb "p=0.3 plausible" true (!hits > 2_500 && !hits < 3_500)

let test_prng_exponential_mean () =
  let r = Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential r ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "exponential mean ~50" true (mean > 45.0 && mean < 55.0)

let test_prng_choose_shuffle () =
  let r = Prng.create ~seed:5 in
  let a = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    checkb "choose member" true (Array.exists (( = ) (Prng.choose r a)) a)
  done;
  let b = Array.init 100 Fun.id in
  Prng.shuffle r b;
  Array.sort compare b;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 100 Fun.id) b;
  Alcotest.check_raises "choose empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose r [||]))

(* ---- Vec ---- *)

let test_vec_basic () =
  let v = Vec.create ~dummy:0 () in
  checkb "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  checki "length" 100 (Vec.length v);
  checki "get 57" 57 (Vec.get v 57);
  Vec.set v 57 1000;
  checki "set visible" 1000 (Vec.get v 57);
  checki "top" 99 (Vec.top v);
  checki "pop" 99 (Vec.pop v);
  checki "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 3 out of bounds [0,3)")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Vec.get: index -1 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_clear_truncate () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 2;
  check Alcotest.(list int) "truncate" [ 1; 2 ] (Vec.to_list v);
  Vec.truncate v 10;
  checki "truncate longer is no-op" 2 (Vec.length v);
  Vec.clear v;
  checkb "clear" true (Vec.is_empty v)

let test_vec_swap_remove () =
  let v = Vec.of_list ~dummy:0 [ 10; 20; 30; 40 ] in
  checki "removed" 20 (Vec.swap_remove v 1);
  check Alcotest.(list int) "last moved in" [ 10; 40; 30 ] (Vec.to_list v);
  checki "remove last" 30 (Vec.swap_remove v 2);
  checki "len" 2 (Vec.length v)

let test_vec_iterators () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  checki "fold sum" 6 (Vec.fold ( + ) 0 v);
  checkb "exists" true (Vec.exists (( = ) 2) v);
  checkb "not exists" false (Vec.exists (( = ) 9) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check
    Alcotest.(list (pair int int))
    "iteri order"
    [ (0, 1); (1, 2); (2, 3) ]
    (List.rev !acc);
  check Alcotest.(array int) "to_array" [| 1; 2; 3 |] (Vec.to_array v)

let vec_model_prop =
  QCheck.Test.make ~name:"Vec behaves like a list under push/pop/set" ~count:200
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let v = Vec.create ~dummy:0 () in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Vec.push v x;
            model := !model @ [ x ]
          end
          else if not (Vec.is_empty v) then begin
            ignore (Vec.pop v);
            model := List.filteri (fun i _ -> i < List.length !model - 1) !model
          end)
        ops;
      Vec.to_list v = !model)

(* ---- Int_vec ---- *)

let int_vec_of_list l =
  let v = Int_vec.create ~capacity:1 () in
  List.iter (Int_vec.push v) l;
  v

let test_int_vec_basic () =
  let v = Int_vec.create ~capacity:1 () in
  checkb "fresh empty" true (Int_vec.is_empty v);
  for i = 0 to 99 do
    Int_vec.push v i
  done;
  checki "length after growth" 100 (Int_vec.length v);
  checki "get 57" 57 (Int_vec.get v 57);
  Int_vec.set v 57 1000;
  checki "set visible" 1000 (Int_vec.get v 57);
  checki "top" 99 (Int_vec.top v);
  checki "pop" 99 (Int_vec.pop v);
  checki "length after pop" 99 (Int_vec.length v);
  check Alcotest.(list int) "growth kept order" (List.init 57 Fun.id)
    (List.filteri (fun i _ -> i < 57) (Int_vec.to_list v))

let test_int_vec_bounds () =
  let v = int_vec_of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Int_vec.get: index 3 out of bounds [0,3)") (fun () ->
      ignore (Int_vec.get v 3));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Int_vec.get: index -1 out of bounds [0,3)") (fun () ->
      ignore (Int_vec.get v (-1)));
  Alcotest.check_raises "set oob"
    (Invalid_argument "Int_vec.set: index 3 out of bounds [0,3)") (fun () ->
      Int_vec.set v 3 0);
  Alcotest.check_raises "swap_remove oob"
    (Invalid_argument "Int_vec.swap_remove: index 5 out of bounds [0,3)")
    (fun () -> ignore (Int_vec.swap_remove v 5));
  let e = Int_vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Int_vec.pop: empty")
    (fun () -> ignore (Int_vec.pop e));
  Alcotest.check_raises "top empty" (Invalid_argument "Int_vec.top: empty")
    (fun () -> ignore (Int_vec.top e));
  (* A slot past the length stays out of reach after a pop. *)
  ignore (Int_vec.pop v);
  Alcotest.check_raises "get past popped length"
    (Invalid_argument "Int_vec.get: index 2 out of bounds [0,2)") (fun () ->
      ignore (Int_vec.get v 2))

let test_int_vec_clear_truncate () =
  let v = int_vec_of_list [ 1; 2; 3; 4; 5 ] in
  Int_vec.truncate v 2;
  check Alcotest.(list int) "truncate" [ 1; 2 ] (Int_vec.to_list v);
  Int_vec.truncate v 10;
  checki "truncate longer is no-op" 2 (Int_vec.length v);
  Alcotest.check_raises "truncate negative"
    (Invalid_argument "Int_vec.truncate: negative length") (fun () ->
      Int_vec.truncate v (-1));
  Int_vec.clear v;
  checkb "clear" true (Int_vec.is_empty v);
  Int_vec.push v 7;
  check Alcotest.(list int) "reusable after clear" [ 7 ] (Int_vec.to_list v)

let test_int_vec_swap_remove () =
  let v = int_vec_of_list [ 10; 20; 30; 40 ] in
  checki "removed" 20 (Int_vec.swap_remove v 1);
  check Alcotest.(list int) "last moved in" [ 10; 40; 30 ] (Int_vec.to_list v);
  checki "remove last" 30 (Int_vec.swap_remove v 2);
  checki "len" 2 (Int_vec.length v)

let test_int_vec_iterators () =
  let v = int_vec_of_list [ 1; 2; 3 ] in
  checki "fold sum" 6 (Int_vec.fold ( + ) 0 v);
  let seen = ref [] in
  Int_vec.iter (fun x -> seen := x :: !seen) v;
  check Alcotest.(list int) "iter order" [ 1; 2; 3 ] (List.rev !seen);
  check Alcotest.(array int) "to_array" [| 1; 2; 3 |] (Int_vec.to_array v)

let int_vec_model_prop =
  QCheck.Test.make ~name:"Int_vec behaves like Vec under push/pop/set/truncate"
    ~count:200
    QCheck.(list (pair (int_bound 3) small_nat))
    (fun ops ->
      let v = Int_vec.create ~capacity:1 () and r = Vec.create ~dummy:0 () in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 | 1 ->
            Int_vec.push v x;
            Vec.push r x
          | 2 when not (Vec.is_empty r) ->
            let i = x mod Vec.length r in
            Int_vec.set v i (x + 1);
            Vec.set r i (x + 1)
          | 3 when not (Vec.is_empty r) ->
            assert (Int_vec.pop v = Vec.pop r)
          | _ ->
            Int_vec.truncate v (x mod 4);
            Vec.truncate r (x mod 4))
        ops;
      Int_vec.to_list v = Vec.to_list r)

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Pqueue.create ~dummy:"" () in
  List.iter (fun (p, v) -> Pqueue.add q ~prio:p v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let order = ref [] in
  let rec drain () =
    match Pqueue.pop_min q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "ascending" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !order)

let test_pqueue_pop_le () =
  let q = Pqueue.create ~dummy:0 () in
  List.iter (fun p -> Pqueue.add q ~prio:p p) [ 10; 20; 30 ];
  check Alcotest.(option (pair int int)) "pop_le hit" (Some (10, 10)) (Pqueue.pop_le q 15);
  check Alcotest.(option (pair int int)) "pop_le miss" None (Pqueue.pop_le q 15);
  checki "two left" 2 (Pqueue.length q)

let test_pqueue_min_prio_clear () =
  let q = Pqueue.create ~dummy:0 () in
  check Alcotest.(option int) "empty min" None (Pqueue.min_prio q);
  Pqueue.add q ~prio:7 7;
  check Alcotest.(option int) "min" (Some 7) (Pqueue.min_prio q);
  Pqueue.clear q;
  checkb "cleared" true (Pqueue.is_empty q)

let pqueue_sort_prop =
  QCheck.Test.make ~name:"Pqueue drains in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun l ->
      let q = Pqueue.create ~dummy:0 () in
      List.iter (fun p -> Pqueue.add q ~prio:p p) l;
      let rec drain acc =
        match Pqueue.pop_min q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

(* The swap-based binary heap [Pqueue] used before its priorities moved
   to an int array, kept as the reference for its pop order: the same
   comparisons in the same places, so equal priorities must come out in
   the same order. *)
module Swap_heap = struct
  type 'a t = { mutable a : (int * 'a) array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let swap t i j =
    let x = t.a.(i) in
    t.a.(i) <- t.a.(j);
    t.a.(j) <- x

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if fst t.a.(i) < fst t.a.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.n && fst t.a.(l) < fst t.a.(!smallest) then smallest := l;
    if r < t.n && fst t.a.(r) < fst t.a.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let add t ~prio v =
    if t.n = Array.length t.a then
      t.a <- Array.append t.a (Array.make (max 1 t.n) (prio, v));
    t.a.(t.n) <- (prio, v);
    t.n <- t.n + 1;
    sift_up t (t.n - 1)

  let pop_min t =
    if t.n = 0 then None
    else begin
      let top = t.a.(0) in
      swap t 0 (t.n - 1);
      t.n <- t.n - 1;
      if t.n > 0 then sift_down t 0;
      Some top
    end

  let pop_le t bound = if t.n > 0 && fst t.a.(0) <= bound then pop_min t else None
end

(* Random interleavings of add, pop_min and pop_le over a handful of
   priorities, so most adds tie with queued elements. Values are
   sequence numbers: two runs agree only if ties pop identically. *)
let pqueue_reference_prop =
  QCheck.Test.make ~name:"Pqueue pops the swap-based heap's sequence, ties included"
    ~count:300
    QCheck.(list (pair (int_bound 4) (int_bound 5)))
    (fun ops ->
      let q = Pqueue.create ~dummy:(-1) () and r = Swap_heap.create () in
      let seq = ref 0 in
      List.for_all
        (fun (op, p) ->
          match op with
          | 0 | 1 | 2 ->
            Pqueue.add q ~prio:p !seq;
            Swap_heap.add r ~prio:p !seq;
            incr seq;
            Pqueue.length q = r.Swap_heap.n
          | 3 -> Pqueue.pop_min q = Swap_heap.pop_min r
          | _ -> Pqueue.pop_le q p = Swap_heap.pop_le r p)
        ops
      &&
      let rec drain () =
        match (Pqueue.pop_min q, Swap_heap.pop_min r) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

(* ---- Stats_math ---- *)

let checkf = Alcotest.(check (float 1e-9))

let test_stats_mean_geomean () =
  checkf "mean" 2.0 (SM.mean [ 1.0; 2.0; 3.0 ]);
  checkf "mean empty" 0.0 (SM.mean []);
  checkf "geomean" 4.0 (SM.geomean [ 2.0; 8.0 ]);
  Alcotest.check_raises "geomean non-positive"
    (Invalid_argument "Stats_math.geomean: non-positive value") (fun () ->
      ignore (SM.geomean [ 1.0; 0.0 ]))

let test_stats_normalize () =
  check
    Alcotest.(list (float 1e-9))
    "normalize" [ 2.0; 1.0; 3.0 ]
    (SM.normalize_to_best [ 4.0; 2.0; 6.0 ])

let test_stats_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "p0" 1.0 (SM.percentile a 0.0);
  checkf "p50" 3.0 (SM.percentile a 50.0);
  checkf "p100" 5.0 (SM.percentile a 100.0);
  checkf "p25 interpolates" 2.0 (SM.percentile a 25.0)

let test_stats_round () =
  checkf "round_to" 3.14 (SM.round_to 2 3.14159)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 4 = "== t");
  checkb "has row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| 1 | 2  |"))

let test_table_arity () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "x" ])

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "z" ];
  let lines = String.split_on_char '\n' (Table.to_csv t) in
  check Alcotest.(list string) "csv" [ "#csv t"; "a,b"; "x;y,z"; "" ] lines

(* ---- Histogram ---- *)

let test_histogram () =
  let h = Histogram.create ~bucket_width:10.0 () in
  List.iter (Histogram.add h) [ 1.0; 5.0; 15.0; 99.0 ];
  checki "count" 4 (Histogram.count h);
  checkf "max" 99.0 (Histogram.max_value h);
  checkf "mean" 30.0 (Histogram.mean h);
  check
    Alcotest.(list (pair (float 1e-9) int))
    "buckets"
    [ (0.0, 2); (10.0, 1); (90.0, 1) ]
    (Histogram.buckets h);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Histogram.create: width must be positive") (fun () ->
      ignore (Histogram.create ~bucket_width:0.0 ()))

let test_histogram_quantile () =
  (* Empty: every quantile is 0. *)
  let e = Histogram.create ~bucket_width:10.0 () in
  checkf "empty p50" 0.0 (Histogram.quantile e 0.5);
  checkf "empty p99" 0.0 (Histogram.quantile e 0.99);
  (* Single sample: every quantile is (clamped to) that sample. *)
  let s = Histogram.create ~bucket_width:10.0 () in
  Histogram.add s 7.0;
  checkf "single p0" 7.0 (Histogram.quantile s 0.0);
  checkf "single p50" 7.0 (Histogram.quantile s 0.5);
  checkf "single p100" 7.0 (Histogram.quantile s 1.0);
  (* Out-of-range q clamps rather than raises. *)
  checkf "q below 0" 7.0 (Histogram.quantile s (-1.0));
  checkf "q above 1" 7.0 (Histogram.quantile s 2.0);
  (* Heavy tail: 99 small values and one huge one. The p99 bucket is
     still the small one; p100 must report the outlier exactly. *)
  let h = Histogram.create ~bucket_width:1.0 () in
  for _ = 1 to 99 do
    Histogram.add h 0.5
  done;
  Histogram.add h 1000.0;
  checkb "heavy-tail p50 in first bucket" true (Histogram.quantile h 0.5 <= 1.0);
  checkb "heavy-tail p99 in first bucket" true (Histogram.quantile h 0.99 <= 1.0);
  checkf "heavy-tail max" 1000.0 (Histogram.quantile h 1.0);
  (* Quantiles are monotone in q. *)
  let prev = ref 0.0 in
  List.iter
    (fun q ->
      let v = Histogram.quantile h q in
      checkb "monotone" true (v >= !prev);
      prev := v)
    [ 0.1; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_histogram_merge () =
  let mk vs =
    let h = Histogram.create ~bucket_width:10.0 () in
    List.iter (Histogram.add h) vs;
    h
  in
  (* Merging with empty preserves everything. *)
  let a = mk [ 1.0; 15.0; 99.0 ] in
  let m = Histogram.merge a (mk []) in
  checki "merge-empty count" 3 (Histogram.count m);
  checkf "merge-empty max" 99.0 (Histogram.max_value m);
  checkf "merge-empty mean" (Histogram.mean a) (Histogram.mean m);
  (* Merge equals the histogram of the concatenated samples. *)
  let xs = [ 1.0; 5.0; 15.0 ] and ys = [ 15.0; 99.0 ] in
  let both = Histogram.merge (mk xs) (mk ys) in
  let direct = mk (xs @ ys) in
  checki "count" (Histogram.count direct) (Histogram.count both);
  checkf "mean" (Histogram.mean direct) (Histogram.mean both);
  checkf "max" (Histogram.max_value direct) (Histogram.max_value both);
  check
    Alcotest.(list (pair (float 1e-9) int))
    "buckets"
    (Histogram.buckets direct)
    (Histogram.buckets both);
  (* Inputs are not mutated. *)
  checki "left untouched" 3 (Histogram.count (mk xs));
  (* Incompatible widths are rejected. *)
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Histogram.merge: bucket widths differ") (fun () ->
      ignore
        (Histogram.merge
           (Histogram.create ~bucket_width:1.0 ())
           (Histogram.create ~bucket_width:2.0 ())))

(* ---- Json ---- *)

let test_json_print () =
  let j =
    Json.Obj
      [
        ("a", Json.Num 1.5);
        ("b", Json.Arr [ Json.Null; Json.Bool true; Json.Str "x\"y\n" ]);
        ("n", Json.Num 42.0);
      ]
  in
  check Alcotest.string "compact"
    {|{"a":1.5,"b":[null,true,"x\"y\n"],"n":42}|}
    (Json.to_string j);
  check Alcotest.string "nan prints as null" "null" (Json.to_string (Json.Num Float.nan))

let test_json_parse () =
  let j = Json.of_string {| {"xs": [1, -2.5, "aAb"], "t": true} |} in
  Alcotest.(check (option (float 1e-9)))
    "number" (Some (-2.5))
    (Option.bind (Json.member "xs" j) (fun xs ->
         Option.bind (Json.to_list xs) (fun l -> Json.to_float (List.nth l 1))));
  Alcotest.(check (option string))
    "unicode escape" (Some "aAb")
    (Option.bind (Json.member "xs" j) (fun xs ->
         Option.bind (Json.to_list xs) (fun l -> Json.to_str (List.nth l 2))));
  check Alcotest.bool "absent member" true (Json.member "zzz" j = None)

let test_json_malformed () =
  let rejects s =
    match Json.of_string s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  checkb "unterminated array" true (rejects "[1, 2");
  checkb "trailing garbage" true (rejects "{} {}");
  checkb "bare word" true (rejects "nul");
  checkb "missing colon" true (rejects {|{"a" 1}|});
  checkb "empty input" true (rejects "")

let json_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      sized
      @@ fix (fun self n ->
             let leaf =
               oneof
                 [
                   return Json.Null;
                   map (fun b -> Json.Bool b) bool;
                   map (fun i -> Json.Num (float_of_int i)) small_signed_int;
                   map (fun s -> Json.Str s) string_printable;
                 ]
             in
             if n = 0 then leaf
             else
               oneof
                 [
                   leaf;
                   map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2)));
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4)
                        (pair string_printable (self (n / 2))));
                 ]))
  in
  QCheck.Test.make ~name:"Json print/parse roundtrip" ~count:300
    (QCheck.make gen)
    (fun j ->
      Json.of_string (Json.to_string j) = j
      && Json.of_string (Json.to_string ~indent:true j) = j)

let suite =
  [
    ("prng determinism", `Quick, test_prng_determinism);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng bounds", `Quick, test_prng_bounds);
    ("prng invalid bound", `Quick, test_prng_int_invalid);
    ("prng copy/split", `Quick, test_prng_copy_split);
    ("prng chance", `Quick, test_prng_chance);
    ("prng exponential mean", `Quick, test_prng_exponential_mean);
    ("prng choose/shuffle", `Quick, test_prng_choose_shuffle);
    ("vec basic", `Quick, test_vec_basic);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec clear/truncate", `Quick, test_vec_clear_truncate);
    ("vec swap_remove", `Quick, test_vec_swap_remove);
    ("vec iterators", `Quick, test_vec_iterators);
    Prop.to_alcotest vec_model_prop;
    ("int_vec basic", `Quick, test_int_vec_basic);
    ("int_vec bounds", `Quick, test_int_vec_bounds);
    ("int_vec clear/truncate", `Quick, test_int_vec_clear_truncate);
    ("int_vec swap_remove", `Quick, test_int_vec_swap_remove);
    ("int_vec iterators", `Quick, test_int_vec_iterators);
    Prop.to_alcotest int_vec_model_prop;
    ("pqueue order", `Quick, test_pqueue_order);
    ("pqueue pop_le", `Quick, test_pqueue_pop_le);
    ("pqueue min/clear", `Quick, test_pqueue_min_prio_clear);
    Prop.to_alcotest pqueue_sort_prop;
    Prop.to_alcotest pqueue_reference_prop;
    ("stats mean/geomean", `Quick, test_stats_mean_geomean);
    ("stats normalize", `Quick, test_stats_normalize);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats round", `Quick, test_stats_round);
    ("table render", `Quick, test_table_render);
    ("table arity", `Quick, test_table_arity);
    ("table csv", `Quick, test_table_csv);
    ("histogram", `Quick, test_histogram);
    ("histogram quantile", `Quick, test_histogram_quantile);
    ("histogram merge", `Quick, test_histogram_merge);
    ("json print", `Quick, test_json_print);
    ("json parse", `Quick, test_json_parse);
    ("json malformed", `Quick, test_json_malformed);
    Prop.to_alcotest json_roundtrip_prop;
  ]
