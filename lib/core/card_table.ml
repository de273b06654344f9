module Int_table = Beltway_util.Int_table

type t = { dirty : unit Int_table.t }

let create () = { dirty = Int_table.create 64 }
let mark t ~frame = Int_table.replace t.dirty frame ()
let is_dirty t ~frame = Int_table.mem t.dirty frame
let clear t ~frame = Int_table.remove t.dirty frame

let iter_dirty t f =
  Int_table.fold (fun frame () acc -> frame :: acc) t.dirty [] |> List.iter f

let dirty_count t = Int_table.length t.dirty
