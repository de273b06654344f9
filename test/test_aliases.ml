(* Documentation honesty for the test gates: every alias whose comment
   in test/dune says it is "Part of @runtest" must really be a
   dependency of the runtest alias, and the fresh-seed soak must not
   be. Reads test/dune (a dependency of the test runner) with a small
   s-expression reader that keeps each top-level stanza's leading
   comment. *)

type sexp = Atom of string | List of sexp list

let checkb = Alcotest.(check bool)

(* Top-level stanzas of a dune file, each paired with the text of the
   comments between it and the previous stanza. *)
let read_stanzas text =
  let n = String.length text in
  let pos = ref 0 in
  let skip_blank comments =
    let stop = ref false in
    while (not !stop) && !pos < n do
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' -> incr pos
      | ';' ->
        let start = !pos + 1 in
        while !pos < n && text.[!pos] <> '\n' do
          incr pos
        done;
        Buffer.add_string comments (String.sub text start (!pos - start));
        Buffer.add_char comments ' '
      | _ -> stop := true
    done
  in
  let atom_end stop_at =
    while !pos < n && not (stop_at text.[!pos]) do
      incr pos
    done
  in
  let rec form () =
    match text.[!pos] with
    | '(' ->
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_blank (Buffer.create 16);
        if !pos >= n then failwith "test/dune: unbalanced parentheses"
        else if text.[!pos] = ')' then incr pos
        else begin
          items := form () :: !items;
          loop ()
        end
      in
      loop ();
      List (List.rev !items)
    | '"' ->
      let start = !pos + 1 in
      incr pos;
      atom_end (fun c -> c = '"');
      incr pos;
      Atom (String.sub text start (!pos - start - 1))
    | _ ->
      let start = !pos in
      atom_end (function
        | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> true
        | _ -> false);
      Atom (String.sub text start (!pos - start))
  in
  let rec stanzas acc =
    let comments = Buffer.create 256 in
    skip_blank comments;
    if !pos >= n then List.rev acc
    else begin
      let f = form () in
      stanzas ((Buffer.contents comments, f) :: acc)
    end
  in
  stanzas []

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let alias_fields = function
  | List [ Atom "alias"; Atom a ] -> Some a
  | _ -> None

(* The alias a [(rule (alias NAME) ...)] stanza attaches to. *)
let rule_alias = function
  | List (Atom "rule" :: fields) -> List.find_map alias_fields fields
  | _ -> None

let runtest_deps stanzas =
  List.concat_map
    (fun (_, f) ->
      match f with
      | List (Atom "alias" :: fields)
        when List.mem (List [ Atom "name"; Atom "runtest" ]) fields ->
        List.concat_map
          (function
            | List (Atom "deps" :: ds) -> List.filter_map alias_fields ds
            | _ -> [])
          fields
      | _ -> [])
    stanzas

let test_documented_aliases_run () =
  let text = In_channel.with_open_bin "dune" In_channel.input_all in
  let stanzas = read_stanzas text in
  let deps = runtest_deps stanzas in
  let claimed =
    List.filter_map
      (fun (comment, f) ->
        match rule_alias f with
        | Some a
          when contains ~needle:"Part of @runtest"
                 (String.concat " " (words comment)) ->
          Some a
        | _ -> None)
      stanzas
  in
  checkb "test/dune documents some @runtest gates" true (claimed <> []);
  List.iter
    (fun a ->
      checkb
        (Printf.sprintf "@%s says \"Part of @runtest\" and is a runtest dependency" a)
        true (List.mem a deps))
    claimed;
  checkb "@soak (fresh seeds) is not part of @runtest" false (List.mem "soak" deps)

let suite =
  [ ("documented @runtest gates are wired", `Quick, test_documented_aliases_run) ]
