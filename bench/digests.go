package main

// pinned are the workload digests at the default seed and full sizes.
// They are key-independent (digests never cover signatures), so they
// hold for any generated keys; a change that alters one changed what the
// simulator does, not how fast it does it.
var pinned = map[string]string{
	"cross4-dense":   "e27fe8526a7022b6531d72f23777ce8233b665cc22e6e90bb34aa18b5e514881",
	"sweep-fig4":     "e8f2d3a2947aecab065508bc6e0b8fa4a64717badbba6a87c833096999c2e48a",
	"grid3x3-attack": "b52a585c35a8df243daf01054a9fe559b3ce59aae2e61255b24a44ddaa346ac9",
	"serve-ckpt":     "d9d6bb1ec106968811367f8cf6c4614bac33b22ac8a4adcc097cc43e7f5c1bd9",
}
